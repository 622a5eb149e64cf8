"""The benchmark's four workloads: seeded inputs, set-up, one op, and its check.

Every workload is a closed loop with one client. Inputs come in rounds of a
fixed shape (which ring sizes, code sizes and op kinds occur, and how
often); the seed picks the content (twist pairs, derivations, subsets) and,
in decide_batch, the order of the ops in a round. A run measures
whole rounds, so the mix of cheap and costly ops is the same in every run and
every seed.

A workload object has:

* ``setup()``: the library work done before the first timed op;
* ``rounds()``: an endless, seed-determined sequence of lists of op specs;
* ``run(spec)``: the timed call into sigmatau;
* ``check(spec, result, error)``: ``(ops, failed)`` for that call, judged
  against answers the benchmark knows independently (see truth.py). A call
  that raises fails all the ops it stood for.

The program under test is reached only through attribute lookups on the
``sigmatau`` package and the CLI, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import truth
from cli_shim import TRACE_MARK

HERE = Path(__file__).resolve().parent


def _coords_arg(coords) -> str:
    return ",".join(str(v) for v in coords)


def _small(rng, n, lo=-9, hi=9):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def _nonzero(rng, n, lo=-9, hi=9):
    while True:
        v = _small(rng, n, lo, hi)
        if any(v):
            return v


def _witness_ok(model, sigma, tau, gen, d_gen, witness, beta) -> bool:
    """True when an inner verdict's witness is right.

    beta is the planted witness, or None when only D(gen) is known; then the
    witness must reproduce D on the generator through the model's arithmetic.
    """
    if witness is None:
        return False
    if beta is not None:
        return tuple(witness) == tuple(beta)
    return model.mul(witness, model.twist(sigma, tau, model.basis(gen))) == tuple(d_gen)


# ----------------------------------------------------------------- cli_inner

class CliInner:
    """Each op is one fresh interpreter running ``sigmatau inner --method both``."""

    name = "cli_inner"
    # One round: two queries at p = 13, five at 17, two at 19, and one
    # quadratic or biquadratic query, alternating. Query cost grows with p,
    # so p50 falls among the p = 17 queries and p90 at the middle of the
    # p = 19 ones, where that class (whose cost varies by 30 % with the
    # twist pair) gives its steadiest quantile. p = 23 (over a second per
    # query) and p = 29 (over three) would leave one or two per run.
    CYCLOTOMIC_P = (13, 13, 17, 17, 17, 17, 17, 19, 19)
    QUADRATIC_D = tuple(d for d in range(-30, 31) if d not in (0, 1) and all(d % (f * f) for f in range(2, 6)))
    BIQUADRATIC_RADICANDS = (-7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 13)
    TRACE_ROUNDS = 2

    def __init__(self, st, seed: int, root: Path, trace: bool):
        self.st = st
        self.seed = seed
        self.root = root
        self.trace = trace
        self.env = dict(os.environ)
        self.child_dumps: list[dict] = []
        self.process_start_s: list[float] = []

    def setup(self) -> None:
        pass  # nothing survives between queries, so there is nothing to set up

    def rounds(self):
        rng = random.Random(self.seed)
        seen = set()
        for n in itertools.count():
            specs = [self._cyclotomic(rng, seen, p) for p in self.CYCLOTOMIC_P]
            specs.append(self._biquadratic(rng, seen) if n % 2 else self._quadratic(rng, seen))
            yield specs

    @staticmethod
    def _fresh(seen, draw):
        for _ in range(10000):
            model, sigma, tau = draw()
            key = (model.cli, sigma, tau)
            if key not in seen:
                seen.add(key)
                return model, sigma, tau
        raise RuntimeError("ran out of distinct (ring, sigma, tau) queries")

    def _cyclotomic(self, rng, seen, p):
        model = truth.Cyclotomic(p)
        _, sigma, tau = self._fresh(seen, lambda: (model, *rng.sample(model.names, 2)))
        if rng.random() < 0.5:
            beta = _small(rng, model.n, -3, 3)
            d_gen = model.inner_images(sigma, tau, beta)[1]
            expected = (True, beta)
        else:
            d_gen = _nonzero(rng, model.n)
            expected = (sum(d_gen) % p == 0, None)  # inner iff (1 - z) divides D(z)
        args = [f"--dzeta={_coords_arg(d_gen)}"]
        return (model, sigma, tau, 1, d_gen, expected, args, "conjectural")

    def _quadratic(self, rng, seen):
        model, sigma, tau = self._fresh(seen, lambda: (truth.Quadratic(rng.choice(self.QUADRATIC_D)), *rng.sample(("id", "conj"), 2)))
        if rng.random() < 0.5:
            beta = _small(rng, 2)
            images = model.inner_images(sigma, tau, beta)
            expected = (True, beta)
        else:
            images = [(0, 0), _nonzero(rng, 2, -20, 20)]
            quotient = model.divide(images[1], model.twist(sigma, tau, model.basis(1)))
            beta = truth.integral(quotient)
            expected = (beta is not None, beta)
        return self._images_spec(model, sigma, tau, 1, images, expected)

    def _biquadratic(self, rng, seen):
        def draw():
            m, n = rng.sample(self.BIQUADRATIC_RADICANDS, 2)
            return (truth.Biquadratic(m, n), *rng.sample(truth.Biquadratic(m, n).names, 2))

        model, sigma, tau = self._fresh(seen, draw)
        # D = (gamma/2)(tau - sigma) is integral because tau - sigma maps the
        # basis into 2 times the ring; it is inner iff gamma/2 is in the ring
        gamma = _nonzero(rng, 4, -6, 6)
        if rng.random() < 0.5:
            gamma = tuple(2 * v for v in gamma)
        images = [tuple(v // 2 for v in img) for img in model.inner_images(sigma, tau, gamma)]
        inner = all(v % 2 == 0 for v in gamma)
        gen = 2 if model.case(sigma, tau) == "I" else 1
        expected = (inner, tuple(v // 2 for v in gamma) if inner else None)
        return self._images_spec(model, sigma, tau, gen, images, expected)

    @staticmethod
    def _images_spec(model, sigma, tau, gen, images, expected):
        args = ["--images=" + ";".join(_coords_arg(img) for img in images)]
        return (model, sigma, tau, gen, images[gen], expected, args, "closed")

    def run(self, spec):
        model, sigma, tau, _, _, _, map_args, _ = spec
        argv = ["inner", "--ring", model.cli, "--sigma", sigma, "--tau", tau, *map_args, "--format", "json"]
        cmd = [sys.executable, str(HERE / "cli_shim.py"), str(self.root), str(int(self.trace)), repr(time.monotonic()), "--", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=120)

    def check(self, spec, proc, error):
        if error is not None:
            return 1, 1
        if self.trace:
            for line in proc.stderr.splitlines():
                if line.startswith(TRACE_MARK):
                    dump = json.loads(line[len(TRACE_MARK):])
                    self.process_start_s.append(dump.pop("process_start_s"))
                    self.child_dumps.append(dump)
        if proc.returncode != 0:
            return 1, 1
        model, sigma, tau, gen, d_gen, (inner, beta), _, closed = spec
        try:
            doc = json.loads(proc.stdout)
            verdicts = [doc["generic"], doc[closed]]
        except (ValueError, KeyError):
            return 1, 1
        for v in verdicts:
            if v["inner"] != inner:
                return 1, 1
            if inner and not _witness_ok(model, sigma, tau, gen, d_gen, v["witness"], beta):
                return 1, 1
        return 1, 0


# -------------------------------------------------------------- decide_batch

class DecideBatch:
    """Each op builds one derivation and runs the generic and the family decider."""

    name = "decide_batch"
    # (family, ring parameters, twist pairs in the pool for that ring). Op
    # cost grows from quadratic through p = 5, then p = 7 and biquadratic
    # (one block of similar cost), to p = 11 and 13. A round holds every
    # pool entry PLANTED times with a planted beta and as often with a random
    # D, plus one basis call per non-quadratic ring, in seeded order. Its mix
    # is therefore fixed: p50 falls mid-way through the p = 7 / biquadratic
    # block and p90 mid-way through the p = 13 decisions. The pairs are drawn
    # once with POOL_SEED, not with the run's seed, because decision cost
    # differs by pair (17 to 24 ms at p = 13) and would move p90 by seed.
    POOL = (
        ("cyclotomic", (5,), 3), ("cyclotomic", (7,), 3), ("cyclotomic", (11,), 3), ("cyclotomic", (13,), 5),
        ("quadratic", (-1,), 2), ("quadratic", (2,), 2), ("quadratic", (5,), 2),
        ("biquadratic", (2, 3), 3), ("biquadratic", (-1, 2), 3), ("biquadratic", (3, 5), 3), ("biquadratic", (-1, 5), 3),
    )
    POOL_SEED = 0
    PLANTED = 2
    TRACE_ROUNDS = 6

    def __init__(self, st, seed: int, root: Path, trace: bool):
        self.st = st
        self.seed = seed
        self.seen = set()
        self.reused = 0
        self.ops = 0

    def setup(self) -> None:
        st = self.st
        rng = random.Random(self.POOL_SEED)
        makers = {
            "cyclotomic": (st.make_cyclotomic, truth.Cyclotomic),
            "quadratic": (st.make_quadratic, truth.Quadratic),
            "biquadratic": (st.make_biquadratic, truth.Biquadratic),
        }
        self.pool = []  # (family, ring, model, endos, sigma name, tau name)
        self.basis_rings = []  # pool indices of each non-quadratic ring's pairs
        for family, args, n_pairs in self.POOL:
            make, model_of = makers[family]
            ring = make(*args)
            endos = {e.name: e for e in st.endomorphisms(ring)}
            model = model_of(*args)
            pairs = [(s, t) for s in model.names for t in model.names if s != t]
            first = len(self.pool)
            for sigma, tau in rng.sample(pairs, n_pairs):
                self.pool.append((family, ring, model, endos, sigma, tau))
            if family != "quadratic":
                self.basis_rings.append(range(first, len(self.pool)))

    def rounds(self):
        rng = random.Random(self.seed + 1)
        for n in itertools.count():
            specs = [
                self._decide(rng, idx, planted)
                for idx in range(len(self.pool))
                for planted in (True, False)
                for _ in range(self.PLANTED)
            ]
            specs += [("basis", idxs[n % len(idxs)]) for idxs in self.basis_rings]
            rng.shuffle(specs)
            yield specs

    def _decide(self, rng, idx, planted):
        family, _, model, _, sigma, tau = self.pool[idx]
        if planted:
            beta = _small(rng, model.n, -5, 5)
            return ("planted", idx, beta, model.inner_images(sigma, tau, beta), (True, beta))
        if family == "cyclotomic":
            dz = _nonzero(rng, model.n)
            images = [model.mul(_power_sum(model, sigma, tau, k), dz) for k in range(model.n)]
            return ("random", idx, dz, images, (sum(dz) % model.p == 0, None))
        if family == "quadratic":
            delta = _nonzero(rng, 2, -20, 20)
            beta = truth.integral(model.divide(delta, model.twist(sigma, tau, model.basis(1))))
            return ("random", idx, delta, [(0, 0), delta], (beta is not None, beta))
        gamma = _nonzero(rng, 4, -6, 6)
        images = [tuple(v // 2 for v in img) for img in model.inner_images(sigma, tau, gamma)]
        inner = all(v % 2 == 0 for v in gamma)
        return ("random", idx, None, images, (inner, tuple(v // 2 for v in gamma) if inner else None))

    def run(self, spec):
        st = self.st
        kind, idx = spec[0], spec[1]
        family, ring, model, endos, sigma_name, tau_name = self.pool[idx]
        sigma, tau = endos[sigma_name], endos[tau_name]
        self.ops += 1
        self.reused += idx in self.seen
        self.seen.add(idx)
        if kind == "basis":
            basis = st.cyclotomic_basis if family == "cyclotomic" else st.biquadratic_basis
            return basis(ring, sigma, tau).rank
        _, _, free, images, _ = spec
        if kind == "planted":
            d = st.inner_derivation(ring.spec, sigma, tau, free)
        elif family == "cyclotomic":
            d = st.build_cyclotomic_derivation(ring, sigma, tau, free)
        elif family == "quadratic":
            d = st.build_quadratic_derivation(ring, [(0, 0), free])
        else:
            case = model.case(sigma_name, tau_name)
            data = images[2] if case == "I" else images[1] if case == "II" else (images[1], images[2])
            d = st.build_biquadratic_derivation(ring, sigma, tau, data)
        closed = {
            "cyclotomic": st.cyclotomic_inner_conjectural,
            "quadratic": st.quadratic_inner,
            "biquadratic": st.biquadratic_inner,
        }[family]
        return d.images, st.is_inner_generic(ring, sigma, tau, d), closed(ring, sigma, tau, d)

    def check(self, spec, result, error):
        if error is not None:
            return 1, 1
        family, _, model, _, sigma, tau = self.pool[spec[1]]
        if spec[0] == "basis":
            return 1, int(result != (model.n if family == "cyclotomic" else 4))
        _, _, _, images, (inner, beta) = spec
        got_images, *verdicts = result
        if tuple(map(tuple, got_images)) != tuple(map(tuple, images)):
            return 1, 1
        gen = 2 if family == "biquadratic" and model.case(sigma, tau) == "I" else 1
        for v in verdicts:
            if v.inner != inner:
                return 1, 1
            if inner and not _witness_ok(model, sigma, tau, gen, images[gen], v.witness, beta):
                return 1, 1
        return 1, 0

    def reuse_share(self) -> float:
        return self.reused / self.ops if self.ops else 0.0


def _power_sum(model, sigma, tau, k):
    """Sum of sigma(z)^i tau(z)^j over i + j = k - 1: D(z^k) = this * D(z)."""
    u, w = int(sigma), int(tau)
    acc = [0] * model.n
    for i in range(k):
        for r, v in enumerate(model.power(u * i + w * (k - 1 - i))):
            acc[r] += v
    return tuple(acc)


# --------------------------------------------------------------------- sweep

class Sweep:
    """A round is ``sweep(p, p, jobs=1)`` for each odd prime p <= P_MAX, the
    cases of one ``sweep(3, P_MAX)``; an op is one determinant case.

    One call per prime, not one for the whole range, so that no call runs
    much longer than a second and host speed is sampled between them (see
    worker.py). Every case of a call is given the call's time per case, so
    p50 falls among the p = 29 cases and p90 among the p = 31 ones. The
    sweep has no free input, so the seed changes nothing here.
    """

    name = "sweep"
    P_MAX = 31
    TRACE_ROUNDS = 3

    def __init__(self, st, seed: int, root: Path, trace: bool):
        self.st = st
        self.primes = [p for p in range(3, self.P_MAX + 1) if truth.is_prime(p)]

    def setup(self) -> None:
        pass

    def rounds(self):
        while True:
            yield self.primes

    def run(self, p):
        return self.st.sweep(p, p, jobs=1)

    def check(self, p, report, error):
        expected = (p - 1) * (p - 2)
        if error is not None:
            return expected, expected
        cases = {(c.u, c.w): c.det for c in report.cases if c.p == p}
        failed = sum(1 for u in range(1, p) for w in range(1, p) if u != w and cases.get((u, w)) != p)
        return expected, failed + max(0, len(report.cases) - expected)


# --------------------------------------------------------------------- codes

class Codes:
    """Each op is one ``code_report`` call on a subset of derivation-image rows."""

    name = "codes"
    # (p, q, k) of the random codes in each round, next to the 13 reference
    # subsets. Both k and n - k stay within 20 over GF(2) and 10 over GF(3),
    # so each minimum-distance walk covers at most 2^20 or 3^10 codewords.
    # The cheap reference reports hold p50; the three GF(2) k = 20 codes,
    # of similar cost, hold p90.
    RANDOM = ((29, 2, 18), (23, 2, 20), (29, 2, 20), (31, 2, 20), (17, 3, 10))
    TRACE_ROUNDS = 5

    def __init__(self, st, seed: int, root: Path, trace: bool):
        self.st = st
        self.seed = seed
        self.fixtures = root / "src" / "sigmatau" / "fixtures"

    def setup(self) -> None:
        st = self.st
        rng = random.Random(self.seed)
        ref = json.loads((self.fixtures / "subsets_p17.json").read_text())
        rows = (self.fixtures / "paper_s17_codes.csv").read_text().splitlines()[1:]
        self.golden = {line.split(",")[0]: line for line in rows}
        self.matrices = {}
        for p in sorted({ref["p"], *(p for p, _, _ in self.RANDOM)}):
            ring = st.make_cyclotomic(p)
            endos = {e.name: e for e in st.endomorphisms(ring)}
            if p == ref["p"]:
                d = st.build_cyclotomic_derivation(ring, endos[str(ref["sigma"])], endos[str(ref["tau"])], ref["d_zeta"])
                self.ref_matrix = st.idd_matrix(ring, d)
            sigma, tau, dz = self._derivation(rng, p)
            self.matrices[p] = st.idd_matrix(ring, st.build_cyclotomic_derivation(ring, endos[sigma], endos[tau], dz))
        # exponent j selects the row of D(z^j)
        self.reference = [(f"S{i}", [e + 1 for e in subset], ref["q"]) for i, subset in enumerate(ref["subsets"], start=1)]

    def rounds(self):
        rng = random.Random(self.seed + 1)
        while True:
            specs = [("ref", self.ref_matrix, label, subset, q) for label, subset, q in self.reference]
            for p, q, k in self.RANDOM:
                specs.append(("random", self.matrices[p], p, self._subset(rng, self.matrices[p], q, k), q))
            yield specs

    def _derivation(self, rng, p):
        """A seeded (sigma, tau, D(z)) whose image rows have enough rank mod q
        for every random code at p, judged in truth.py's arithmetic."""
        model = truth.Cyclotomic(p)
        needs = [(q, k) for pp, q, k in self.RANDOM if pp == p]
        for _ in range(1000):
            sigma, tau = rng.sample(model.names, 2)
            dz = [rng.randint(0, 1) for _ in range(p - 2)] + [1]
            rows = [model.mul(_power_sum(model, sigma, tau, j), dz) for j in range(1, model.n)]
            if all(truth.rank_mod_q(rows, q) >= k for q, k in needs):
                return sigma, tau, dz
        raise RuntimeError(f"no derivation at p = {p} has the rank the codes need")

    @staticmethod
    def _subset(rng, matrix, q, k):
        # rows independent mod q are independent over Z, and keep k = |T|.
        # Taken greedily in a seeded order: when the rows have rank just k
        # mod q, few random k-subsets are independent, and drawing whole
        # subsets could miss them all.
        subset = []
        for t in rng.sample(range(2, matrix.n + 1), matrix.n - 1):
            if truth.rank_mod_q([matrix.B[s - 1] for s in (*subset, t)], q) > len(subset):
                subset.append(t)
                if len(subset) == k:
                    return sorted(subset)
        raise RuntimeError(f"no subset of {k} rows has full rank mod {q}")

    def run(self, spec):
        kind, matrix, tag, subset, q = spec
        return self.st.code_report(matrix, subset, q, label=tag if kind == "ref" else "")

    def check(self, spec, r, error):
        if error is not None:
            return 1, 1
        kind, _, tag, subset, _ = spec
        if kind == "ref":
            d = "—" if r.d is None else r.d
            dual_d = "—" if r.dual_d is None else r.dual_d
            row = f"{r.label},{r.n},{r.k},{d},{'LCD' if r.lcd else 'non-LCD'},{r.dual_n},{r.dual_k},{dual_d}"
            return 1, int(row != self.golden.get(tag))
        n, k = tag - 1, len(subset)
        ok = (
            r.n == r.dual_n == n
            and r.k == k
            and r.k + r.dual_k == n
            and 1 <= r.d <= n - r.k + 1
            and 1 <= r.dual_d <= n - r.dual_k + 1
        )
        return 1, int(not ok)


WORKLOADS = {w.name: w for w in (CliInner, DecideBatch, Sweep, Codes)}
