from setuptools import Extension, setup

# Compiles the generated _kernels.c committed next to _kernels.pyx, so a build
# needs only a C compiler. After editing the .pyx, regenerate the C with
# `cython -3 src/sigmatau/_kernels.pyx` and commit both.
setup(
    ext_modules=[
        Extension(
            "sigmatau._kernels",
            ["src/sigmatau/_kernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ],
)
