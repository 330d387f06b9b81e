"""Byte-level regression: output hashes pinned to recorded values.

The ``factor`` and ``check`` digests were recorded from the implementation
before the factorization hot path was memoized, and the digests of the
other writers before ``jsonio.dumps`` did its encoding in C; any change to
cell ids, stage order or JSON layout shows up here as a mismatch.  The
free-filler, comultiplication, multiplication, unit and ``export-dot``
digests were recorded from the implementation that still found each free
cell by recomputing its id from the hashed boundary lift, before lookups
went by target and faces.
"""

import hashlib
import random

from relcell import (
    EMPTY,
    Cell,
    CellComplex,
    CellComplexMorphism,
    DeltaComplex,
    Factorizer,
    FillerTable,
    SimplicialMap,
    Stratum,
    assemble,
    boundary_complex,
    boundary_restriction,
    cellcx_colimit,
    cellcx_coproduct,
    cellcx_equaliser,
    characteristic_map,
    coalgebra_structure,
    coequaliser,
    colimit,
    comonad_comult,
    compose,
    compose_morphisms,
    coproduct,
    decode,
    enumerate_homs,
    free_complex,
    free_fillers,
    gen,
    identity_map,
    jsonio,
    monad_mult,
    pushforward_complex,
    pushout,
    square_key,
    standard_simplex,
    u_of_complex,
    unit,
    verify_fillers,
)
from relcell.cli import main

from conftest import (
    boundary_inclusion, boundary_lifts, cx, images_of, stratum_of)

# sha256 of (stdout + --out file) of ``factor --format json`` for the first
# ten criterion-8 maps (gen.rand_map(rng, max_dim=3) at seed 2032)
FACTOR_DIGESTS = [
    "0ffde9159b26c2403b870cd70f65fd95ef667aec9e94fa1d98dc094d48db311f",
    "5fa297d8b8b9d08c1fab58ab2206a53d2e61fd4c1a2b387b52d40f209ed7a77f",
    "696c7ec467b902614487e61e14efafdd991dbb8d52323da3bcd5ee45abe90463",
    "52993574771a4f66b06f760cb62129fb96b571c4db98820aec219d9dcd7d2c3c",
    "edc2ff6315b564b40a00c9bb380dc84d01e21b65c60832e129de1a22afebb305",
    "1cb5e7689f501a4956525524e07be86abee5665f0de0658871226742525ef9f2",
    "38618ada10f9333261a9c959f163e3e25a080947539523b420d0656a53446bbd",
    "3a4c4d8c69daa18d8d9f9e93019f91435b7a0b4f6164a275623552e85331f163",
    "afc1a5ef59685057cb6866fe7179be139847a890f2d30477fd51c17dd9156f94",
    "28b651631f6fea6f353b5e82518f4794e54c5fbaa0dca754a60b6b8f4923759a",
]

# sha256 of the stdout of ``check --format json``
CHECK_DIGEST = \
    "e3d25fe8cad34d54e1b20f96df0a5e485242cdffc5524249181ef89790a142ad"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_factor_output_bytes(tmp_path, capsys):
    rng = random.Random(2032)
    got = []
    for i in range(10):
        src = tmp_path / f"map{i}.json"
        src.write_text(jsonio.dumps(jsonio.map_to_json(
            gen.rand_map(rng, max_dim=3))))
        out = tmp_path / f"fr{i}.json"
        assert main(["factor", str(src), "--format", "json",
                     "--out", str(out)]) == 0
        got.append(_sha(capsys.readouterr().out.encode() +
                        out.read_bytes()))
    assert got == FACTOR_DIGESTS


def test_check_output_bytes(capsys):
    assert main(["check", "--format", "json"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == CHECK_DIGEST


# sha256 of (stdout + --out file) of ``pushout``, ``lift``, ``compose`` and
# ``normalize`` on the small fixed inputs built by ``_writer_inputs``.  These
# were recorded from the implementation before ``jsonio.dumps`` did its
# encoding in C.  With the digests above they cover every subcommand that
# writes JSON.
WRITER_DIGESTS = {
    "pushout":
        "b8c514ff7e4aebf4e660c3c6a33ca902cf36a434a8e01802869b2b8f875a1b38",
    "lift":
        "b46940e5f0b90675006bca5db633de703d0ba08dcd828cf5d5794c7d91d7cb46",
    "compose":
        "d4897d7f9059dd44f74ffadf9d6216acfe3dec89f4e00733bed541c8d1bc93a6",
    "normalize":
        "5ee6aee28ad0f0894cb778bef7f0b5690a19ddb1b7464b81f8bc3fdb86a04ceb",
}


def _writer_inputs(write):
    """argv (minus ``--out``) for each writer, from seeded random inputs."""
    rng = random.Random(2033)
    f = gen.rand_map(rng, max_dim=2)
    fr = free_complex(f)
    kf = jsonio.cellcx_to_json(fr.kf)
    a = gen.rand_cell_complex(rng, max_cells=4, prefix="a")
    b = free_complex(gen.rand_map_from(rng, a.body)).kf
    shuffled = jsonio.cellcx_to_json(gen.rand_cell_complex(rng, max_cells=4))
    cells = [c for st in shuffled["strata"] for c in st["cells"]]
    shuffled["strata"] = [{"cells": cells[::-1]}]
    return {
        "pushout": ["pushout", write("f.json", jsonio.map_to_json(f)),
                    write("kf.json", jsonio.map_to_json(u_of_complex(fr.kf)))],
        "lift": ["lift", write("c.json", kf),
                 write("t.json", jsonio.filler_table_to_json(
                     FillerTable(fr.ef, fallback="search"))),
                 write("u.json", jsonio.map_to_json(u_of_complex(fr.kf))),
                 write("v.json", jsonio.map_to_json(fr.ef))],
        "compose": ["compose", write("a.json", jsonio.cellcx_to_json(a)),
                    write("b.json", jsonio.cellcx_to_json(b))],
        "normalize": ["normalize", write("s.json", shuffled)],
    }


def test_writer_output_bytes(tmp_path, capsys):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(jsonio.dumps(payload))
        return str(path)

    got = {}
    for name, argv in _writer_inputs(write).items():
        out = tmp_path / f"{name}.out.json"
        assert main(argv + ["--out", str(out)]) == 0
        got[name] = _sha(capsys.readouterr().out.encode() + out.read_bytes())
    assert got == WRITER_DIGESTS


def hostile_maps():
    """Maps whose ids hold JSON, ``str.format`` and printf syntax, escapes,
    non-ASCII and a control character, and maps out of the empty complex.
    The codomain ids flow into the cell ids."""
    v0, v1, v2 = "{", "}", "{}"
    e01, e02, e12 = '"q"', "\\b\\", "."
    cod = DeltaComplex(
        {0: [v0, v1, v2], 1: [e01, e02, e12], 2: ["ñ\x07{0}"]},
        {e01: (v1, v0), e02: (v2, v0), e12: (v2, v1),
         "ñ\x07{0}": (e12, e02, e01)})
    dom = DeltaComplex({0: ["a{", "é\""], 1: ["x\\}"]},
                       {"x\\}": ("é\"", "a{")})
    return {
        "hostile": SimplicialMap(dom, cod, {"a{": v0, "é\"": v1,
                                            "x\\}": e01}),
        "empty-to-hostile": SimplicialMap(EMPTY, cod, {}),
        "empty-to-point": SimplicialMap(EMPTY, standard_simplex(0), {}),
        "printf": _printf_map(),
    }


def _printf_map():
    """A map whose domain and codomain ids hold ``%``, ``%s``, ``%%``,
    ``%(x)s`` and ``%d``."""
    v0, v1, v2 = "%", "%s", "%%"
    e01, e02, e12 = "%(x)s", "%d", "%%s%"
    cod = DeltaComplex(
        {0: [v0, v1, v2], 1: [e01, e02, e12], 2: ["%(y)d%"]},
        {e01: (v1, v0), e02: (v2, v0), e12: (v2, v1),
         "%(y)d%": (e12, e02, e01)})
    dom = DeltaComplex({0: ["a%", "%%b"], 1: ["%s%d"]},
                       {"%s%d": ("%%b", "a%")})
    return SimplicialMap(dom, cod, {"a%": v0, "%%b": v1, "%s%d": e01})


# sha256 of (stdout + --out file) of ``factor --format json`` on each of
# ``hostile_maps``, recorded before ``factor`` wrote its output by shape
HOSTILE_FACTOR_DIGESTS = {
    "hostile":
        "566936f9e6c0b20ebe26343971112e2aa24274668733f1f64a331b9fb34e0d4a",
    "empty-to-hostile":
        "5245dca6cbdfc8699c5a2f6a362bd2d7933a981f07e8ac2f8598b297bed481f2",
    "empty-to-point":
        "e682404d2aaaabdec0cfdc0f39741cc53bd2445017c99790bcac64d99f6dbdd2",
    # recorded before the fills switched from ``str.format`` to ``%``
    "printf":
        "dae620f20b580702af6d090095e650ec48b9805ed1fded24436274e46025a03b",
}


def test_factor_output_bytes_on_hostile_ids(tmp_path, capsys):
    got = {}
    for name, f in hostile_maps().items():
        src = tmp_path / f"{name}.json"
        src.write_text(jsonio.dumps(jsonio.map_to_json(f)))
        out = tmp_path / f"{name}.out.json"
        assert main(["factor", str(src), "--format", "json",
                     "--out", str(out)]) == 0
        got[name] = _sha(capsys.readouterr().out.encode() + out.read_bytes())
    assert got == HOSTILE_FACTOR_DIGESTS


# sha256 of the sorted (map index, target, boundary lift, filler) rows that
# ``free_fillers`` gives for every generating square into ``fr.ef``, over
# the first 20 ``gen.rand_map(rng, max_dim=2)`` maps at seed 2034
FREE_FILLER_DIGEST = \
    "98489d40e7ea33c8099e9a21a9cbc468272556fff1b619cafc45d60f6b58de75"
# sha256 of ``comonad_comult`` then ``monad_mult``, written by
# ``jsonio.dumps``, for each of 20 ``gen.rand_map(rng, max_dim=1)`` maps at
# seed 2033
COMULT_MULT_DIGEST = \
    "2b3fe5a120410dd188f3cfb50f8541b9826f739d1a5992efc310cb4fa6b08458"
# sha256 of the sorted cell assignment ``unit(c).p`` for 20
# ``gen.rand_cell_complex(rng, max_cells=4)`` at seed 131
UNIT_DIGEST = \
    "5a4facea097c326dae1e7857e12fed1369fb9b4aee6d6d7904743114dc36d09d"


def test_free_filler_choices():
    rng = random.Random(2034)
    rows = []
    for i in range(20):
        fr = free_complex(gen.rand_map(rng, max_dim=2))
        ft = free_fillers(fr)
        for _, t in fr.ef.cod.all_ids():
            for u in boundary_lifts(fr.ef, t):
                rows.append((i, t, sorted(u.assign.items()),
                             ft.filler(u, t)))
    assert _sha(repr(sorted(rows)).encode()) == FREE_FILLER_DIGEST


def test_comonad_comult_and_monad_mult():
    rng = random.Random(2033)
    fz = Factorizer()
    texts = []
    for _ in range(20):
        f = gen.rand_map(rng, max_dim=1)
        texts.append(jsonio.dumps(jsonio.map_to_json(comonad_comult(f, fz))))
        texts.append(jsonio.dumps(jsonio.map_to_json(monad_mult(f, fz))))
    assert _sha("".join(texts).encode()) == COMULT_MULT_DIGEST


def test_unit_cell_assignments():
    rng = random.Random(131)
    rows = [sorted(unit(gen.rand_cell_complex(rng, max_cells=4)).p.items())
            for _ in range(20)]
    assert _sha(repr(rows).encode()) == UNIT_DIGEST



# sha256 of the ``verify_fillers`` reports (squares checked, truncation, and
# each failure's square and reason, in order) of 30 search-fallback tables
# over ``gen.rand_map(rng, max_dim=2)`` maps at seed 2037, each with up to
# three entries on generating squares, their fillers drawn from every
# domain id and a ghost (most of them corrupt), at sample budgets None, 1,
# 5 and 20
VERIFY_FILLERS_DIGEST = \
    "d280a0839a600ea035b3a56feb9d7d1e831cb0cc3957eba21a13ec5e23f6cc10"


def _verify_fillers_reports():
    rng = random.Random(2037)
    rows = []
    for i in range(30):
        p = gen.rand_map(rng, max_dim=2)
        entries = {}
        for _ in range(rng.randint(0, 3)):
            k, b = rng.choice(list(p.cod.all_ids()))
            lifts = enumerate_homs(boundary_complex(k), p.dom, post=(
                p, boundary_restriction(p.cod, b)))
            if lifts:
                u = rng.choice(lifts)
                entries[square_key(k, b, u.assign)] = rng.choice(
                    sorted(p.dom.id_set) + ["ghost"])
        ft = FillerTable(p, entries, fallback="search")
        for budget in (None, 1, 5, 20):
            rep = verify_fillers(ft, sample_budget=budget)
            rows.append((i, budget, rep["checked"], rep["truncated"],
                         rep["ok"], [(f["square"], f["reason"])
                                     for f in rep["failures"]]))
    return rows


def test_verify_fillers_reports():
    rows = _verify_fillers_reports()
    assert _sha(repr(rows).encode()) == VERIFY_FILLERS_DIGEST

# sha256 of the stdout of ``export-dot`` on two free complexes with several
# stages: over the boundary inclusion of the 2-simplex, and over the second
# criterion-8 map
DOT_DIGESTS = {
    "boundary-2":
        "4b4aba37610754a8b3d27318a3de9a18055f16c41075b0cb6c552501849bc9fb",
    "criterion-8-1":
        "da9c053d2c00f81e3baadc1900aaf932744fe3053a93c29c58b797b7f2135371",
}


def test_export_dot_bytes(tmp_path, capsys):
    rng = random.Random(2032)
    gen.rand_map(rng, max_dim=3)
    maps = {"boundary-2": boundary_inclusion(2),
            "criterion-8-1": gen.rand_map(rng, max_dim=3)}
    got = {}
    for name, f in maps.items():
        path = tmp_path / f"{name}.json"
        path.write_text(jsonio.dumps(jsonio.cellcx_to_json(
            free_complex(f).kf)))
        assert main(["export-dot", str(path)]) == 0
        got[name] = _sha(capsys.readouterr().out.encode())
    assert got == DOT_DIGESTS


# sha256 of the JSON, written by ``jsonio.dumps``, of what each derived
# construction returns on the seeded diagrams of ``_derived_outputs``: the
# complex or stratum and every morphism (base map and cell assignment).
# The first four were recorded from the implementation that still built each
# result stage by stage, before ``assemble`` placed their cells; the
# ``strata_equaliser`` and ``decode`` rows from the one that still listed
# the cells of each result by hand, before they were read off its body.
DERIVED_DIGESTS = {
    "pushforward_complex":
        "a2843e908a9d774eae536c37ccfa6f27c65c3a35be1c61f34c45bb53b86da953",
    "cellcx_colimit":
        "835d6c2246e6face686d24caf6ef5536138dae418866ed279674470e83a319ba",
    "cellcx_equaliser":
        "a962b7beaafac49fcd9891ac749026fd497643e070b5dc2c443e6fe48747a9d9",
    "strata_colimit":
        "a47a70087bc02a5ca62215a6fbc0af03ec889bd32a91827cb0f6ba53374368ec",
    "strata_equaliser":
        "241a6fb69c37d1015b31629d32ffc53ca57220f09fd1099a95e3bfae6c386c11",
    "decode":
        "2b97ee9f68578672eaec5d998a7179e615957d349d35accf0bb415cb229723aa",
}


def _morphism_json(m):
    return {"base": jsonio.map_to_json(m.f0), "cells": m.p}


def _parallel_pair(rng, c):
    """Two morphisms out of c into one complex, from c + c: either glued
    along the first n strata of c, or pushed forward along a random map of
    the two bases, so that they agree on some cells or on some base."""
    two, (j0, j1) = cellcx_coproduct([c, c])
    if rng.random() < 0.5:
        s = CellComplex(c.boundary, c.strata[:rng.randint(0, c.height)])
        incl = CellComplexMorphism(s, c, identity_map(c.boundary),
                                   {cid: cid for cid in s.cell_ids})
        _, (_, q) = cellcx_colimit(
            [s, two], [(0, 1, compose_morphisms(j0, incl)),
                       (0, 1, compose_morphisms(j1, incl))])
    else:
        _, q = pushforward_complex(two, gen.rand_map_from(rng, two.boundary))
    return compose_morphisms(q, j0), compose_morphisms(q, j1)


def _parallel_strata_pair(rng, s):
    """``_parallel_pair`` for a stratum s, as a complex of height <= 1: two
    morphisms out of it, from s + s glued along some of its cells, or
    pushed forward along a random map."""
    two, (j0, j1) = cellcx_coproduct([cx(s), cx(s)])
    if rng.random() < 0.5:
        sub = Stratum(s.boundary, rng.sample(s.cells,
                                             rng.randint(0, len(s.cells))))
        incl = CellComplexMorphism(cx(sub), cx(s), identity_map(s.boundary),
                                   {c.id: c.id for c in sub.cells})
        _, (_, q) = cellcx_colimit(
            [cx(sub), two], [(0, 1, compose_morphisms(j0, incl)),
                             (0, 1, compose_morphisms(j1, incl))])
    else:
        _, q = pushforward_complex(two, gen.rand_map_from(rng, two.boundary))
    return compose_morphisms(q, j0), compose_morphisms(q, j1)


def _subcomplex_complex(rng):
    """The complex over a random subcomplex whose cells are the other
    simplices of the ambient complex, each attached along its faces."""
    y = gen.rand_complex(rng)
    x = gen.rand_subcomplex(rng, y)
    return assemble(x, [Cell(s, k, images_of(boundary_restriction(y, s)))
                        for k, s in y.all_ids() if s not in x])


def _derived_outputs():
    rng = random.Random(2035)
    rows = {name: [] for name in DERIVED_DIGESTS}
    for _ in range(25):
        c = gen.rand_cell_complex(rng)
        out, m = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
        rows["pushforward_complex"].append(
            [jsonio.cellcx_to_json(out), _morphism_json(m)])
    for _ in range(25):
        c = gen.rand_cell_complex(rng)
        m1 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))[1]
        m2 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))[1]
        out, legs = cellcx_colimit([c, m1.cod, m2.cod],
                                   [(0, 1, m1), (0, 2, m2)])
        rows["cellcx_colimit"].append(
            [jsonio.cellcx_to_json(out)] + [_morphism_json(m) for m in legs])
    for _ in range(25):
        c = gen.rand_cell_complex(rng)
        e, incl = cellcx_equaliser(*_parallel_pair(rng, c))
        rows["cellcx_equaliser"].append(
            [jsonio.cellcx_to_json(e), _morphism_json(incl)])
    for _ in range(25):
        s0 = gen.rand_stratum(rng)
        c = cx(s0)
        m1 = pushforward_complex(c, gen.rand_map_from(rng, s0.boundary))[1]
        m2 = pushforward_complex(c, gen.rand_map_from(rng, s0.boundary))[1]
        out, legs = cellcx_colimit([c, m1.cod, m2.cod],
                                   [(0, 1, m1), (0, 2, m2)])
        rows["strata_colimit"].append(
            [jsonio.stratum_to_json(stratum_of(out))] +
            [{"boundary": jsonio.map_to_json(m.f0), "cells": m.p}
             for m in legs])
    for _ in range(25):
        e, incl = cellcx_equaliser(
            *_parallel_strata_pair(rng, gen.rand_stratum(rng)))
        rows["strata_equaliser"].append(
            [jsonio.stratum_to_json(stratum_of(e)),
             {"boundary": jsonio.map_to_json(incl.f0), "cells": incl.p}])
    fz = Factorizer()
    for i in range(20):
        c = gen.rand_cell_complex(rng) if i % 2 else _subcomplex_complex(rng)
        f = u_of_complex(c)
        out = decode(f, coalgebra_structure(c, fz), fz.k(f))
        rows["decode"].append(jsonio.cellcx_to_json(out))
    return rows


def test_derived_constructions():
    got = {name: _sha(jsonio.dumps(rows).encode())
           for name, rows in _derived_outputs().items()}
    assert got == DERIVED_DIGESTS


# sha256 of the JSON, written by ``jsonio.dumps``, of the legs each
# degreewise quotient returns on the seeded diagrams of ``_quotient_outputs``
# (a leg's codomain is the quotient itself).  These were recorded from the
# implementation that still ran one union-find per construction.
QUOTIENT_DIGESTS = {
    "coproduct":
        "6a133d561718eb4d9024a814162cac112b74b4bf93dbac25782df448fa54cc0b",
    "colimit":
        "7ba1f572ae0bcac148739b29140e2bf89f8f2879e6fd9c27be8021df0248dcf1",
    "pushout":
        "7f5dbd428ac5d7bd5968d73745aa5685ee6a7ce3a7546e81e1c7e19e9f42bf92",
    "coequaliser":
        "2a1b1f2658c7b88662ada89c813b190d22acae58438feb04c00b7d4a6bf51921",
}


def _same_dim_pair(rng, x):
    """The characteristic maps of two random simplices of one dimension."""
    k = rng.choice([k for k in range(x.max_dim + 1) if x.ids(k)])
    a, b = (rng.choice(sorted(x.ids(k))) for _ in range(2))
    return characteristic_map(x, a), characteristic_map(x, b)


def _quotient_outputs():
    rng = random.Random(2036)
    rows = {name: [] for name in QUOTIENT_DIGESTS}
    for _ in range(25):
        parts = [gen.rand_complex(rng) for _ in range(rng.randint(0, 3))]
        rows["coproduct"].append(coproduct(parts)[1])
    for _ in range(25):
        f = gen.rand_map(rng)  # an inclusion, then quotients
        a = gen.rand_map_from(rng, f.dom)
        rows["pushout"].append(pushout(f, a)[1:])
        rows["pushout"].append(pushout(a, f)[1:])
        # two unrelated complexes glued along a simplex, or along nothing:
        # their ids collide, so X-only classes get trailing apostrophes
        x, y = gen.rand_complex(rng), gen.rand_complex(rng)
        k = rng.randint(0, min(x.max_dim, y.max_dim))
        rows["pushout"].append(pushout(
            characteristic_map(x, rng.choice(sorted(x.ids(k)))),
            characteristic_map(y, rng.choice(sorted(y.ids(k)))))[1:])
        rows["pushout"].append(pushout(SimplicialMap(EMPTY, x, {}),
                                       SimplicialMap(EMPTY, y, {}))[1:])
        rows["colimit"].append(colimit([f.dom, f.cod, a.cod],
                                       [(0, 1, f), (0, 2, a)])[1])
        b = gen.rand_map_from(rng, f.cod)
        rows["colimit"].append(colimit(
            [f.dom, f.cod, b.cod],
            [(0, 1, f), (1, 2, b), (0, 2, compose(b, f))])[1])
        u, v = _same_dim_pair(rng, gen.rand_complex(rng, max_dim=3))
        rows["colimit"].append(colimit([u.dom, u.cod],
                                       [(0, 1, u), (0, 1, v)])[1])
        rows["coequaliser"].append(coequaliser(u, v)[1:])
    for _ in range(25):
        rows["coequaliser"].append(
            [gen.rand_quotient(rng, gen.rand_complex(rng, max_dim=3))])
        f = gen.rand_map(rng)
        two, (j0, j1) = coproduct([f.cod, f.cod])
        rows["coequaliser"].append(
            coequaliser(compose(j0, f), compose(j1, f))[1:])
    return {name: [[jsonio.map_to_json(leg) for leg in legs]
                   for legs in row] for name, row in rows.items()}


def test_quotient_constructions():
    got = {name: _sha(jsonio.dumps(rows).encode())
           for name, rows in _quotient_outputs().items()}
    assert got == QUOTIENT_DIGESTS
