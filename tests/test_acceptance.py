"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion is checked exactly, at the stated corpus sizes, with zero
numerical tolerance — all comparisons are equalities of finite structures.
"""

import random
from pathlib import Path

from relcell import (
    EMPTY,
    Factorizer,
    SimplicialMap,
    cellcx_colimit,
    cellcx_equaliser,
    coalgebra_structure,
    check_awfs_laws,
    compose,
    compose_complexes,
    decode,
    free_complex,
    free_fillers,
    identity_map,
    is_pullback,
    pushforward_complex,
    solve_lifting,
    standard_simplex,
    transpose,
    u_of_complex,
    u_of_morphism,
)
from relcell import gen, jsonio
from relcell.cli import builtin_fixtures, main
from conftest import (
    boundary_inclusion,
    cx,
    mec_partition_composite,
    normal_form,
    rand_cell_complex,
    rand_complex_morphism,
    rand_stratum,
    rand_transpose_square,
    shuffled_strata,
)


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_free_factorization_golden_instance():
    f = boundary_inclusion(1)
    fr = free_complex(f)
    dims = [sorted(k for _, k, _ in st.cells) for st in fr.kf.strata]
    body = fr.kf.body
    ok = (fr.kf.height == 2
          and dims == [[0, 0, 1], [1, 1, 1]]
          and (len(body.ids(0)), len(body.ids(1))) == (4, 4)
          and compose(fr.ef, u_of_complex(fr.kf)) == f)
    # independent oracle: exhaustive commuting-square enumeration per stage
    from test_soa import oracle_squares
    g, prev = f, None
    for n, st in enumerate(fr.kf.strata):
        squares = oracle_squares(g, prev)
        ok = ok and sorted((k, fr.ef.assign[cid]) for cid, k, _ in st.cells) \
            == sorted((k, t) for k, t, _ in squares)
        prev = g.dom.id_set
        stage = fr.kf.filtration[n + 1]
        g = SimplicialMap(stage, f.cod,
                          {s: fr.ef.assign[s] for s in stage.id_set})
    report(1, ok, "free factorization of the dim-1 boundary inclusion "
                  "matches the exhaustive square-enumeration oracle")


def test_criterion_2_awfs_law_suite():
    fz = Factorizer()
    failures = []
    for i, (name, f) in enumerate(builtin_fixtures()):
        rng = random.Random(1000 + i)
        squares = [gen.rand_nat_square(rng, f) for _ in range(5)]
        rep = check_awfs_laws(f, squares, factorizer=fz)
        if not rep["all_pass"]:
            failures.append((name, rep["laws"]))
        if len(rep["laws"]) != 9:
            failures.append((name, "law count"))
    report(2, not failures,
           f"all nine identities hold exactly on 5 fixtures "
           f"(failures: {failures})")


def test_criterion_3_pullback_lemmas():
    rng = random.Random(2026)
    total, good = 0, 0
    for _ in range(100):  # a stratum pushed along a random quotient
        st = rand_stratum(rng)
        m = pushforward_complex(cx(st), gen.rand_map_from(rng, st.boundary))[1]
        total += 1
        good += is_pullback(u_of_morphism(m))
    for _ in range(100):
        m = rand_complex_morphism(rng)
        total += 1
        good += is_pullback(u_of_morphism(m))
    report(3, good == total == 200,
           f"{good}/{total} U-image squares of random strata and complex "
           f"morphisms are pullbacks")


def test_criterion_4_colimit_equaliser_preservation():
    from relcell.delta import colimit as delta_colimit
    from relcell.delta import equaliser as delta_equaliser
    from relcell import CellComplex
    rng = random.Random(2027)
    checked, good = 0, 0

    def bij_over(leg_got, leg_exp, dom_ids):
        seen = {}
        for s in dom_ids:
            if seen.setdefault(leg_exp.assign[s], leg_got.assign[s]) \
                    != leg_got.assign[s]:
                return False
        return len(set(seen.values())) == len(seen)

    for _ in range(30):  # strata colimits (spans): 30 diagrams
        s0 = rand_stratum(rng)
        c = cx(s0)
        m1 = pushforward_complex(c, gen.rand_map_from(rng, s0.boundary))[1]
        m2 = pushforward_complex(c, gen.rand_map_from(rng, s0.boundary))[1]
        out, legs = cellcx_colimit([c, m1.cod, m2.cod],
                                   [(0, 1, m1), (0, 2, m2)])
        bodies = [x.body for x in (c, m1.cod, m2.cod)]
        exp, exp_legs = delta_colimit(
            bodies, [(0, 1, u_of_morphism(m1).bottom),
                     (0, 2, u_of_morphism(m2).bottom)])
        got = u_of_morphism(legs[0]).bottom
        checked += 1
        good += bij_over(got, exp_legs[0], bodies[0].id_set)
    for _ in range(30):  # strata equalisers of parallel pushforward pairs
        s0 = rand_stratum(rng)
        m = pushforward_complex(cx(s0),
                                gen.rand_map_from(rng, s0.boundary))[1]
        e, _ = cellcx_equaliser(m, m)
        eb, _ = delta_equaliser(u_of_morphism(m).bottom,
                                u_of_morphism(m).bottom)
        checked += 1
        good += (e.body == eb)
    for _ in range(25):  # cell-complex colimits + properness revalidation
        c = rand_cell_complex(rng, max_cells=3)
        m1 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))[1]
        m2 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))[1]
        out, legs = cellcx_colimit([c, m1.cod, m2.cod],
                                   [(0, 1, m1), (0, 2, m2)])
        CellComplex(out.boundary, out.strata)  # re-validates properness
        bodies = [x.body for x in (c, m1.cod, m2.cod)]
        exp, exp_legs = delta_colimit(
            bodies, [(0, 1, u_of_morphism(m1).bottom),
                     (0, 2, u_of_morphism(m2).bottom)])
        got = u_of_morphism(legs[0]).bottom
        checked += 1
        good += bij_over(got, exp_legs[0], bodies[0].id_set)
    for _ in range(25):  # cell-complex equalisers
        c = rand_cell_complex(rng, max_cells=3)
        m = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))[1]
        e, _ = cellcx_equaliser(m, m)
        eb, _ = delta_equaliser(u_of_morphism(m).bottom,
                                u_of_morphism(m).bottom)
        checked += 1
        good += (e.body == eb)
    report(4, good == checked == 110,
           f"{good}/{checked} (co)limits agree degreewise with U-images, "
           f"properness revalidated on every colimit")


def test_criterion_5_normal_form_and_stacking():
    rng = random.Random(2028)
    checked, good = 0, 0
    for _ in range(100):
        c = rand_cell_complex(rng, max_cells=5)
        sh = shuffled_strata(rng, c)
        n1 = normal_form(c.boundary, sh)
        checked += 1
        good += (normal_form(n1.boundary, n1.strata) == n1
                 and u_of_complex(n1) == u_of_complex(c)
                 and n1 == c)
    from test_cellcx import build_on
    triples = 0
    for _ in range(50):
        a = rand_cell_complex(rng, max_cells=3, prefix="a")
        b = build_on(rng, a.body, 2, "b")
        d = build_on(rng, b.body, 2, "d")
        assoc = (compose_complexes(compose_complexes(a, b), d)
                 == compose_complexes(a, compose_complexes(b, d)))
        oracle = (compose_complexes(a, b) == mec_partition_composite(a, b))
        triples += assoc and oracle
    report(5, good == 100 and triples == 50,
           f"{good}/100 shuffled sequences renormalize exactly; "
           f"{triples}/50 composable triples associate on the nose and "
           f"match the minimal-stage partition oracle")


def test_criterion_6_adjunction():
    fz = Factorizer()
    rng = random.Random(2029)
    good = 0
    for _ in range(100):
        c = rand_cell_complex(rng, max_dim=1, max_cells=3)
        f, g0, h = rand_transpose_square(rng, c)
        fr = fz.k(f)
        m = transpose(c, g0, h, fr)
        good += (m.f0 == g0 and compose(fr.ef, m.body_map) == h)
    from test_soa import exhaustive_transposes
    unique = 0
    tried = 0
    rng = random.Random(2030)
    while tried < 15:
        c = rand_cell_complex(rng, max_dim=1, max_cells=3)
        if not 1 <= len(list(c.all_cells())) <= 3:
            continue
        tried += 1
        f, g0, h = rand_transpose_square(rng, c)
        fr = fz.k(f)
        expected = transpose(c, g0, h, fr)
        unique += (exhaustive_transposes(c, g0, h, fr)
                   == [tuple(sorted(expected.p.items()))])
    report(6, good == 100 and unique == 15,
           f"{good}/100 transposes reproduce their square via the counit; "
           f"uniqueness confirmed exhaustively on {unique}/15 complexes "
           f"with <= 3 cells")


def test_criterion_7_coalgebra_round_trip():
    fz = Factorizer()
    rng = random.Random(2031)
    good = 0
    for _ in range(100):
        c = rand_cell_complex(rng, max_dim=2, max_cells=6)
        fr = fz.k(u_of_complex(c))
        alpha = coalgebra_structure(c, fz)
        round_trip = decode(u_of_complex(c), alpha, fr) == c
        lift = solve_lifting(c, free_fillers(fr),
                             (u_of_complex(fr.kf), identity_map(c.body)))
        good += round_trip and (lift == alpha)
    report(7, good == 100,
           f"{good}/100 complexes (dims <= 2, <= 6 cells): decode of the "
           f"structure map reproduces the complex and the free-filler lift "
           f"equals the structure map")


def test_criterion_8_termination_bound():
    rng = random.Random(2032)
    good = 0
    for _ in range(100):
        f = gen.rand_map(rng, max_dim=3)
        fr = free_complex(f)  # default safety cap; raising it would FAIL
        good += fr.kf.height <= f.cod.max_dim + 1
    report(8, good == 100,
           f"{good}/100 maps (dims <= 3) factor within height "
           f"max_dim(codomain)+1 without tripping the safety cap")


def test_criterion_9_cli_contract(tmp_path, capsys):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(jsonio.dumps(payload))
        return str(p)

    def run(*argv):
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    okays = []
    f1 = write("b1.json", jsonio.map_to_json(boundary_inclusion(1)))
    code, out, _ = run("factor", f1)
    okays.append(code == 0 and
                 out == "stage 0: 3 cells; stage 1: 3 cells; height 2\n")
    f0 = write("e0.json", jsonio.map_to_json(
        SimplicialMap(EMPTY, standard_simplex(0), {})))
    code, out, _ = run("factor", f0)
    okays.append(code == 0 and out == "stage 0: 1 cell; height 1\n")
    # byte-identical reruns
    out_path = str(tmp_path / "fr.json")
    run("factor", f1, "--out", out_path)
    first = Path(out_path).read_text()
    run("factor", f1, "--out", out_path)
    okays.append(Path(out_path).read_text() == first)
    # check over the criterion-2 corpus
    code, out1, _ = run("check", "--format", "json")
    okays.append(code == 0)
    code, out2, _ = run("check", "--format", "json")
    okays.append(out1 == out2)
    # export-dot golden
    fr = free_complex(boundary_inclusion(1))
    kf = write("kf.json", jsonio.cellcx_to_json(fr.kf))
    code, dot1, _ = run("export-dot", kf)
    okays.append(code == 0 and dot1.count("->") == 4
                 and dot1.count("];") == 8)
    code, dot2, _ = run("export-dot", kf)
    okays.append(dot1 == dot2)
    # exit-code contract under fault injection
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    okays.append(run("factor", str(bad))[0] == 2)         # input error
    okays.append(run("factor", f1, "--cap", "1")[0] == 3)  # budget
    from relcell import CellComplex, Stratum, FillerTable, square_key
    from relcell.delta import coproduct
    two, _ = coproduct([standard_simplex(0), standard_simplex(0)])
    pt = standard_simplex(0)
    fold = SimplicialMap(two, pt, {s: "0" for s in two.id_set})
    c = CellComplex(EMPTY, [Stratum(EMPTY, [("v", 0, ())])])
    pc = write("c.json", jsonio.cellcx_to_json(c))
    pu = write("u.json", jsonio.map_to_json(SimplicialMap(EMPTY, two, {})))
    pv = write("v.json", jsonio.map_to_json(
        SimplicialMap(c.body, pt, {"v": "0"})))
    corrupt = FillerTable(fold, {square_key(0, "0", {}): "ghost"},
                          fallback="fail")
    pt_ = write("t.json", jsonio.filler_table_to_json(corrupt))
    okays.append(run("lift", pc, pt_, pu, pv)[0] == 4)     # law/lift failure
    report(9, all(okays),
           f"{sum(okays)}/{len(okays)} CLI golden-output, determinism, and "
           f"exit-code checks passed")
