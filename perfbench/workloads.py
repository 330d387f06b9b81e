"""The benchmark's three workloads: ``factor``, ``law-check`` and ``lift``.

Each workload is built from a fresh import of ``relcell`` (a namespace of its
modules, see ``run.import_relcell``) and offers the same four steps:

* ``start_pass()`` resets per-pass state before the corpus is run once more;
* ``run(i)`` is the timed item: exactly what a user's call does;
* ``emitted(i, result)`` returns every byte item ``i`` emitted (untimed);
* ``check(i, result)`` checks the output of one execution exactly, against
  the inputs held by the benchmark rather than against the timed objects,
  and returns an error message or ``None`` (run after the timed phase).

Corpora.  Each workload draws its corpus once, from a fixed corpus seed.
``--seed`` then draws a relabelling: every simplex id of every input is
renamed by one seeded bijection.  The program receives isomorphic inputs that
differ in every byte, does the same amount of work (the per-layer counts
repeat exactly at every seed), and writes different bytes.  Fresh draws per
seed were measured and rejected: 100 maps from the criterion-8 distribution
take 3.7 s to 5.6 s to factor depending on the seed, and one in a hundred
maps costs 0.5 s to 2.6 s alone, so items per second over 100 fresh maps
varies by about 0.3 of its median between seeds (resampling 1,200 measured
maps); reaching 0.07 needs about 800 maps, more than a minute per run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

LAWS = ("factorization", "monad_unit_free", "monad_unit_functorial",
        "monad_assoc", "comonad_counit_free", "comonad_counit_functorial",
        "comonad_coassoc", "distributivity", "naturality")


# -- relabelling ------------------------------------------------------------


def _complex_ids(obj, out):
    for k, entries in obj["simplices"].items():
        out.update(entries if k == "0" else (e["id"] for e in entries))


def relabelling(map_jsons, seed):
    """A seeded bijection from every simplex id in ``map_jsons`` to a new id.

    One bijection serves the whole corpus, so maps that share complexes
    still share them after relabelling (the law-check cache depends on it).
    """
    ids = set()
    for obj in map_jsons:
        _complex_ids(obj["dom"], ids)
        _complex_ids(obj["cod"], ids)
    old = sorted(ids)
    new = list(range(len(old)))
    random.Random(seed).shuffle(new)
    return {s: f"v{n}" for s, n in zip(old, new)}


def _relabel_complex(obj, names):
    simplices = {}
    for k, entries in obj["simplices"].items():
        if k == "0":
            simplices[k] = [names[s] for s in entries]
        else:
            simplices[k] = [{"id": names[e["id"]],
                             "faces": [names[f] for f in e["faces"]]}
                            for e in entries]
    return {"simplices": simplices}


def relabel_map(obj, names):
    """The map JSON ``obj`` with every simplex id renamed by ``names``."""
    return {"dom": _relabel_complex(obj["dom"], names),
            "cod": _relabel_complex(obj["cod"], names),
            "assign": {k: {names[s]: names[t] for s, t in graded.items()}
                       for k, graded in obj["assign"].items()}}


def law_fixtures(rc):
    """The five maps ``relcell check`` always checks, in its order.

    Built here rather than taken from ``cli.builtin_fixtures``, which
    ROADMAP.md lists for removal as a duplicate of the test fixtures.
    """
    d = rc.delta
    pt = d.standard_simplex(0)
    two, _ = d.coproduct([pt, pt])
    d1 = d.standard_simplex(1)
    return [
        d.SimplicialMap(d.EMPTY, pt, {}),
        d.inclusion_map(d.boundary_complex(1), d1),
        d.SimplicialMap(two, pt, {s: "0" for s in two.id_set}),
        d.inclusion_map(d.boundary_complex(2), d.standard_simplex(2)),
        d.identity_map(d1),
    ]


# -- workloads --------------------------------------------------------------


class Factor:
    """``relcell factor MAP.json --format json --out FILE`` per map."""

    name = "factor"
    corpus_seed = 2032  # the criterion-8 corpus: 100 maps, max_dim 3
    size, smoke_size = 100, 8

    def __init__(self, rc, seed, smoke, workdir):
        self.rc = rc
        rng = random.Random(self.corpus_seed)
        n = self.smoke_size if smoke else self.size
        raw = [rc.jsonio.map_to_json(rc.gen.rand_map(rng, max_dim=3))
               for _ in range(n)]
        names = relabelling(raw, seed)
        self.maps = []
        self.argv = []
        self.kept = []  # each item's last --out file, moved aside
        for i, obj in enumerate(raw):
            obj = relabel_map(obj, names)
            self.maps.append(rc.jsonio.map_from_json(obj))
            in_path = os.path.join(workdir, f"factor-{i}-map.json")
            out_path = os.path.join(workdir, f"factor-{i}-out.json")
            with open(in_path, "w") as fh:
                fh.write(rc.jsonio.dumps(obj))
            self.argv.append(["factor", in_path, "--format", "json",
                              "--out", out_path])
            self.kept.append(os.path.join(workdir, f"factor-{i}-kept.json"))

    def __len__(self):
        return len(self.maps)

    def start_pass(self):
        pass

    def run(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.rc.cli.main(self.argv[i])
        return code, buf.getvalue()

    def emitted(self, i, result):
        code, text = result
        out = self.argv[i][-1]
        with open(out, "rb") as fh:
            data = fh.read()
        # every execution writes a new file: on ext4, truncating and
        # rewriting an existing file forces its write-back on close
        os.replace(out, self.kept[i])
        return b"%d\n" % code + text.encode() + b"\n" + data

    def check(self, i, result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        rc, f = self.rc, self.maps[i]
        with open(self.kept[i]) as fh:
            fr = rc.jsonio.factor_result_from_json(json.load(fh))
        if fr.input != f:
            return "--out input differs from the map factored"
        if rc.delta.compose(fr.ef, rc.cellcx.u_of_complex(fr.kf)) != f:
            return "ef o U(Kf) != f"
        if fr.kf.height > f.cod.max_dim + 1:
            return f"height {fr.kf.height} > max_dim(cod) + 1"
        summary = json.loads(text)
        if summary != {"stage_counts": fr.stage_counts,
                       "height": fr.kf.height}:
            return "stdout summary differs from the --out complex"
        return None


class LawCheck:
    """``check_awfs_laws`` per map, one shared ``Factorizer`` per pass."""

    name = "law-check"
    corpus_seed = 2033
    size, smoke_size = 100, 2  # random maps after the five fixtures
    squares = 5

    def __init__(self, rc, seed, smoke, workdir):
        self.rc = rc
        rng = random.Random(self.corpus_seed)
        n = self.smoke_size if smoke else self.size
        maps, sqs = law_fixtures(rc), []
        # the fixtures' squares come first, as ``relcell check --seed 2033``
        # draws them; each random map is followed by its own squares
        for i in range(len(maps) + n):
            if i >= len(maps):
                maps.append(rc.gen.rand_map(rng, max_dim=1))
            sqs.append([rc.gen.rand_nat_square(rng, maps[i])
                        for _ in range(self.squares)])
        to_json = rc.jsonio.map_to_json
        raw = [to_json(f) for f in maps] + [
            to_json(m) for row in sqs for sq in row
            for m in (sq.top, sq.bottom, sq.left, sq.right)]
        names = relabelling(raw, seed)

        def load(m):
            return rc.jsonio.map_from_json(relabel_map(to_json(m), names))

        self.maps = [load(f) for f in maps]
        self.sqs = [[rc.delta.ArrowSquare(load(sq.top), load(sq.bottom),
                                          load(sq.left), load(sq.right))
                     for sq in row] for row in sqs]
        self.fz = None

    def __len__(self):
        return len(self.maps)

    def start_pass(self):
        self.fz = self.rc.soa.Factorizer()

    def run(self, i):
        rep = self.rc.soa.check_awfs_laws(self.maps[i], self.sqs[i],
                                          factorizer=self.fz)
        return self.rc.jsonio.dumps(rep)

    def emitted(self, i, result):
        return result.encode()

    def check(self, i, result):
        rep = json.loads(result)
        if set(rep["laws"]) != set(LAWS):
            return f"laws reported: {sorted(rep['laws'])}"
        failing = sorted(k for k, ok in rep["laws"].items() if ok is not True)
        if failing or rep["all_pass"] is not True:
            return f"laws fail: {failing}"
        return None


class Lift:
    """Strict load of a factorization, then two lifts of Kf against ef."""

    name = "lift"
    corpus_seed = 2034
    size, smoke_size = 200, 8

    def __init__(self, rc, seed, smoke, workdir):
        self.rc = rc
        rng = random.Random(self.corpus_seed)
        n = self.smoke_size if smoke else self.size
        raw = [rc.jsonio.map_to_json(rc.gen.rand_map(rng, max_dim=2))
               for _ in range(n)]
        names = relabelling(raw, seed)
        self.texts = []
        for obj in raw:
            f = rc.jsonio.map_from_json(relabel_map(obj, names))
            fr = rc.soa.free_complex(f)
            self.texts.append(
                rc.jsonio.dumps(rc.jsonio.factor_result_to_json(fr)))

    def __len__(self):
        return len(self.texts)

    def start_pass(self):
        pass

    def run(self, i):
        rc = self.rc
        fr = rc.jsonio.factor_result_from_json(json.loads(self.texts[i]))
        square = (rc.cellcx.u_of_complex(fr.kf), fr.ef)
        free = rc.lifting.solve_lifting(fr.kf, rc.lifting.free_fillers(fr),
                                        square)
        table = rc.lifting.FillerTable(fr.ef, fallback="search")
        found = rc.lifting.solve_lifting(fr.kf, table, square)
        dump = rc.jsonio.dumps
        return (dump(rc.jsonio.map_to_json(free)),
                dump(rc.jsonio.map_to_json(found)))

    def emitted(self, i, result):
        return "\0".join(result).encode()

    def check(self, i, result):
        rc = self.rc
        obj = json.loads(self.texts[i])
        kf = rc.jsonio.cellcx_from_json(obj["complex"])
        ef = rc.jsonio.map_from_json(obj["ef"])
        incl = rc.cellcx.u_of_complex(kf)
        free, found = (rc.jsonio.map_from_json(json.loads(t))
                       for t in result)
        if free != rc.delta.identity_map(kf.body):
            return "free-filler lift is not the identity"
        if found.dom != kf.body or found.cod != ef.dom:
            return "search lift has the wrong endpoints"
        if rc.delta.compose(found, incl) != incl:
            return "search lift does not restrict to U(Kf)"
        if rc.delta.compose(ef, found) != ef:
            return "search lift does not project to ef"
        return None


WORKLOADS = {w.name: w for w in (Factor, LawCheck, Lift)}
