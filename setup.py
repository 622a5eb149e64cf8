from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None


def _kernels(source: str) -> Extension:
    return Extension("sigmatau._kernels", [source], extra_compile_args=["-O3"], optional=True)


# without Cython, compile the generated C that is committed next to the .pyx
setup(
    ext_modules=cythonize(
        [_kernels("src/sigmatau/_kernels.pyx")], compiler_directives={"language_level": "3"}
    )
    if cythonize is not None
    else [_kernels("src/sigmatau/_kernels.c")],
)
