"""The benchmark's workloads: seeded inputs, the timed operation, and the
check of every output against the references in ``refs.json``.

Each workload draws its inputs from a fixed pool per input class.  The
pool is generated here, deterministically, so the references stored for
it can be recomputed by ``make_refs.py``; the workload seed only picks
the order in which a run visits each pool.  A run is a sequence of
rounds, and a round holds one input of every class, so every run has the
same mix of input sizes whatever the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _random_cells(tag: str, count: int, num_colors: int) -> list[int]:
    rng = random.Random(tag)
    return [rng.randrange(num_colors) for _ in range(count)]


class Workload:
    """One workload.  Subclasses set the class attributes and define
    ``key``, ``prepare``, ``op``, ``reference`` and ``matches``."""

    name = ""
    classes: tuple = ()  # one input of each class per round
    pool_size = 0  # inputs per class

    def __init__(self, lib, workdir: Path):
        self.lib = lib  # namespace with the package modules
        self.workdir = workdir

    def key(self, cls, index: int) -> str:
        raise NotImplementedError

    def all_keys(self) -> list[str]:
        return [self.key(c, i) for c in self.classes for i in range(self.pool_size)]

    def rounds(self, seed: int):
        """Endless rounds of input keys; the seed fixes the order.  A run
        that outlasts the pool starts it again."""
        rng = random.Random(f"{self.name}/{seed}")
        perms = [rng.sample(range(self.pool_size), self.pool_size) for _ in self.classes]
        r = 0
        while True:
            yield [self.key(c, p[r % self.pool_size]) for c, p in zip(self.classes, perms)]
            r += 1

    def units(self, key: str) -> int:
        """How many operations one call counts as."""
        return 1

    def prepare(self, key: str):
        """Build the program's input for ``key``; not timed."""
        raise NotImplementedError

    def op(self, inp):
        """The timed call into the program."""
        raise NotImplementedError

    def reference(self, key: str, out):
        """The value stored in ``refs.json`` for this output."""
        raise NotImplementedError

    def matches(self, key: str, out, ref) -> bool:
        return self.reference(key, out) == ref

    def warm_up(self) -> None:
        """A small operation of the same kind, run during set-up."""
        raise NotImplementedError


class _Certify(Workload):
    """``cubecolor certify`` through ``cli.main``, in process."""

    def _write(self, tag: str, d: int, n: int, num_colors: int) -> Path:
        path = self.workdir / f"{tag}.txt"
        cells = _random_cells(f"{self.name}/{tag}", n**d, num_colors)
        path.write_text(
            f"{d} {n} {num_colors}\n" + " ".join(map(str, cells)) + "\n", encoding="utf-8"
        )
        return path

    def op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return code, out.getvalue()

    def reference(self, key, out):
        return sha256(out[1])

    def matches(self, key, out, ref):
        code, text = out
        return code == 0 and sha256(text) == ref and json.loads(text)["failures"] == []


class CertifyD3(_Certify):
    name = "certify-d3"
    classes = (2, 3)  # number of colors
    pool_size = 12
    D, N = 3, 4

    def key(self, cls, index):
        return f"c{cls}-i{index}"

    def prepare(self, key):
        colors = int(key.split("-")[0][1:])
        return ["certify", str(self._write(key, self.D, self.N, colors))]

    def warm_up(self):
        self.op(["certify", str(self._write("warm-up", 3, 2, 2))])


class CertifyD2(_Certify):
    name = "certify-d2"
    classes = (5, 6, 7, 8)  # n
    pool_size = 50

    @staticmethod
    def delta(n: int, j: int) -> Fraction:
        """A distinct generic offset per input, below the 1/(4n) cap."""
        return Fraction(1, 16 * n + 1 + 2 * j)

    def key(self, cls, index):
        return f"n{cls}-j{index}"

    def prepare(self, key):
        n, j = (int(part[1:]) for part in key.split("-"))
        path = self._write(key, 2, n, 3)
        return ["certify", str(path), "--delta", str(self.delta(n, j))]

    def warm_up(self):
        self.op(["certify", str(self._write("warm-up", 2, 3, 3)), "--delta", "1/49"])


class Fill(Workload):
    """``chains.fill`` on random relative cycles; the contract is checked
    on every output: boundary(H, relative) == modulo_boundary(z) and
    ||H|| <= ||z||, and both volumes must equal the stored ones."""

    name = "fill"
    classes = tuple(
        (d, k, ring) for d, k in ((3, 1), (3, 2), (4, 2), (4, 3)) for ring in ("mod2", "int")
    )
    pool_size = 300

    def key(self, cls, index):
        d, k, ring = cls
        return f"d{d}-k{k}-{ring}-s{index}"

    def prepare(self, key):
        d, k, ring, s = key.split("-")
        return self.lib.chains.random_relative_cycle(int(s[1:]), int(d[1:]), int(k[1:]), ring=ring)

    def op(self, z):
        return z, self.lib.chains.fill(z)

    def reference(self, key, out):
        z, h = out
        zr = self.lib.chains.modulo_boundary(z)
        return {"z_volume": str(zr.volume()), "h_volume": str(h.volume())}

    def matches(self, key, out, ref):
        chains = self.lib.chains
        z, h = out
        zr = chains.modulo_boundary(z)
        contract = chains.boundary(h, relative=True) == zr and h.volume() <= zr.volume()
        return contract and self.reference(key, out) == ref

    def warm_up(self):
        self.op(self.lib.chains.random_relative_cycle(0, 2, 1))


class Anneal(Workload):
    """``search.anneal`` with fixed step counts; one operation is one step."""

    name = "anneal"
    classes = ((2, 32), (3, 8))  # (d, n), two colors
    pool_size = 60
    STEPS = 120

    def key(self, cls, index):
        d, n = cls
        return f"d{d}-n{n}-s{index}"

    def units(self, key):
        return self.STEPS

    def prepare(self, key):
        d, n, s = (int(part[1:]) for part in key.split("-"))
        return self.lib.search.SearchConfig(d, n, 2, seed=s, steps=self.STEPS)

    def op(self, cfg):
        return self.lib.search.anneal(cfg)

    def reference(self, key, out):
        best, trace = out
        return {"trace": sha256(",".join(map(str, trace))), "best": sha256(best.to_text())}

    def warm_up(self):
        self.op(self.lib.search.SearchConfig(2, 8, 2, seed=0, steps=20))


class Exhaustive(Workload):
    """``search.exhaustive_min(2, 4, 2)``: the exact minimum, 4, and the
    lexicographically least witness.  The input is fixed, so the seed
    changes nothing here."""

    name = "exhaustive"
    classes = ((2, 4, 2),)  # (d, n, num_colors)
    pool_size = 1

    def key(self, cls, index):
        d, n, c = cls
        return f"d{d}-n{n}-c{c}"

    def prepare(self, key):
        return tuple(int(part[1:]) for part in key.split("-"))

    def op(self, args):
        return self.lib.search.exhaustive_min(*args)

    def reference(self, key, out):
        value, witness = out
        return {"value": value, "witness": list(witness.cells)}

    def warm_up(self):
        self.op((2, 3, 2))


WORKLOADS = {w.name: w for w in (CertifyD3, CertifyD2, Fill, Anneal, Exhaustive)}
