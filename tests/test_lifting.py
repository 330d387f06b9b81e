"""Filler tables and the stagewise lifting solver."""

import random

import pytest

from relcell import (
    Cell,
    CellComplex,
    EMPTY,
    FillerTable,
    LiftError,
    SimplicialMap,
    Stratum,
    boundary_complex,
    coalgebra_structure,
    comonad_comult,
    compose_complexes,
    coproduct,
    free_fillers,
    identity_map,
    inclusion_map,
    solve_lifting,
    square_key,
    standard_simplex,
    trivial_complex,
    u_of_complex,
    verify_fillers,
)
from relcell import gen
from conftest import boundary_inclusion, fold_map


class TestFreeFillers:
    def test_zero_cell_square(self, fz):
        f = SimplicialMap(EMPTY, standard_simplex(0), {})
        fr = fz.k(f)
        ft = free_fillers(fr)
        u = SimplicialMap(EMPTY, fr.kf.body, {})
        e = ft.filler(u, "0")
        assert e == next(cid for _, cid in
                         ((n, c.id) for n, c in fr.kf.all_cells()))

    def test_stage_selection_by_mec(self, fz):
        f = boundary_inclusion(1)
        fr = fz.k(f)
        ft = free_fillers(fr)
        bd = boundary_complex(1)
        # original endpoints: stage-0 cell
        u0 = SimplicialMap(bd, fr.kf.body, {"0": "0", "1": "1"})
        e0 = ft.filler(u0, "01")
        assert fr.kf.stage_of_cell(e0) == 0
        # one fresh vertex: stage-1 cell
        fresh = next(c.id for c in fr.kf.strata[0].cells if c.dim == 0
                     and fr.ef.assign[c.id] == "1")
        u1 = SimplicialMap(bd, fr.kf.body, {"0": "0", "1": fresh})
        e1 = ft.filler(u1, "01")
        assert fr.kf.stage_of_cell(e1) == 1

    def test_verify_clean(self, fz):
        for f in (boundary_inclusion(1), fold_map()):
            rep = verify_fillers(free_fillers(fz.k(f)))
            assert rep["ok"] and rep["checked"] > 0


class TestSolver:
    def test_table_dictates_fold_answer(self):
        two, _ = coproduct([standard_simplex(0), standard_simplex(0)])
        pt = standard_simplex(0)
        fold = SimplicialMap(two, pt, {s: "0" for s in two.id_set})
        c = CellComplex(EMPTY, [Stratum(EMPTY, [
            Cell("v", 0, SimplicialMap(EMPTY, EMPTY, {}))])])
        for target, expected in (("0.0", "0.0"), ("1.0", "1.0")):
            ft = FillerTable(fold, {square_key(0, "0", {}): target},
                             fallback="fail")
            d = solve_lifting(c, ft, (SimplicialMap(EMPTY, two, {}),
                                      SimplicialMap(c.body, pt,
                                                    {"v": "0"})))
            assert d.assign["v"] == expected

    def test_no_cells_forces_lift(self):
        x = standard_simplex(1)
        c = trivial_complex(x)
        p = identity_map(x)
        ft = FillerTable(p, fallback="fail")
        u = identity_map(x)
        d = solve_lifting(c, ft, (u, u))
        assert d == u

    def test_unit_lift_is_coalgebra_structure(self, fz):
        rng = random.Random(163)
        for _ in range(15):
            c = gen.rand_cell_complex(rng, max_cells=4)
            fr = fz.k(u_of_complex(c))
            d = solve_lifting(c, free_fillers(fr),
                              (u_of_complex(fr.kf), identity_map(c.body)))
            assert d == coalgebra_structure(c, fz)

    def test_free_lift_is_comultiplication(self, fz):
        for f in (boundary_inclusion(1), fold_map()):
            fr = fz.k(f)
            fru = fz.k(u_of_complex(fr.kf))
            d = solve_lifting(fr.kf, free_fillers(fru),
                              (u_of_complex(fru.kf),
                               identity_map(fr.kf.body)))
            assert d == comonad_comult(f, fz)

    def test_lifts_compose_stagewise(self, fz):
        rng = random.Random(167)
        for _ in range(8):
            a = gen.rand_cell_complex(rng, max_dim=1, max_cells=3,
                                      prefix="a")
            b = rand_on(rng, a.body)
            comp = compose_complexes(a, b)
            fr = fz.k(u_of_complex(comp))
            ft = free_fillers(fr)
            top = u_of_complex(fr.kf)
            v = identity_map(comp.body)
            whole = solve_lifting(comp, ft, (top, v))
            va = inclusion_map(a.body, comp.body)
            d1 = solve_lifting(a, ft, (top, va))
            d2 = solve_lifting(b, ft, (d1, v))
            assert d2 == whole

    def test_order_independence_within_stratum(self, fz):
        rng = random.Random(173)
        pt = standard_simplex(0)
        att = SimplicialMap(boundary_complex(1), pt, {"0": "0", "1": "0"})
        cells = [Cell(f"l{i}", 1, att) for i in range(3)]
        for _ in range(4):
            perm = cells[:]
            rng.shuffle(perm)
            c = CellComplex(pt, [Stratum(pt, perm)])
            fr = fz.k(u_of_complex(c))
            d = solve_lifting(c, free_fillers(fr),
                              (u_of_complex(fr.kf), identity_map(c.body)))
            assert d == coalgebra_structure(c, fz)

    def test_chooser_failure_reports_square(self):
        # p lacks the right lifting property: nothing above target "1"
        pt = standard_simplex(0)
        d1 = standard_simplex(1)
        p = SimplicialMap(pt, d1, {"0": "0"})
        c = CellComplex(EMPTY, [Stratum(EMPTY, [
            Cell("v", 0, SimplicialMap(EMPTY, EMPTY, {}))])])
        ft = FillerTable(p, fallback="search")
        with pytest.raises(LiftError) as exc:
            solve_lifting(c, ft, (SimplicialMap(EMPTY, pt, {}),
                                  SimplicialMap(c.body, d1, {"v": "1"})))
        assert exc.value.square == square_key(0, "1", {})

    @pytest.mark.parametrize("entries, fallback, chooser", [
        ({square_key(0, "0", {}): "nope"}, "search", None),  # bad entry
        ({}, "fail", None),                                  # no entry
        ({}, "fail", lambda u, target: "0"),                 # bad choice
    ])
    def test_filler_errors_report_square(self, entries, fallback, chooser):
        """The key that is built only on demand still names the square."""
        fold = fold_map()
        ft = FillerTable(fold, entries, fallback, chooser)
        u = SimplicialMap(EMPTY, fold.dom, {})
        with pytest.raises(LiftError) as exc:
            ft.filler(u, "0")
        assert exc.value.square == square_key(0, "0", {})


class TestVerify:
    def test_corrupted_entry_single_failure(self):
        two, _ = coproduct([standard_simplex(0), standard_simplex(0)])
        pt = standard_simplex(0)
        fold = SimplicialMap(two, pt, {s: "0" for s in two.id_set})
        bad = FillerTable(fold, {square_key(0, "0", {}): "nope"},
                          fallback="search")
        rep = verify_fillers(bad)
        assert len(rep["failures"]) == 1
        assert not rep["ok"]

    def test_unsolvable_square_reported(self):
        pt = standard_simplex(0)
        d1 = standard_simplex(1)
        p = SimplicialMap(pt, d1, {"0": "0"})
        rep = verify_fillers(FillerTable(p, fallback="search"))
        assert not rep["ok"]
        assert any(f["square"][1] in ("1", "01") for f in rep["failures"])

    def test_budget_truncation(self, fz):
        fr = fz.k(boundary_inclusion(1))
        rep = verify_fillers(free_fillers(fr), sample_budget=3)
        assert rep["checked"] == 3 and rep["truncated"]

    def test_fail_fallback(self):
        pt = standard_simplex(0)
        ft = FillerTable(identity_map(pt), fallback="fail")
        with pytest.raises(LiftError):
            ft.filler(SimplicialMap(EMPTY, pt, {}), "0")


def rand_on(rng, base):
    from relcell.strata import body as st_body
    from relcell import normalize
    strata = []
    current = base
    for j in range(rng.randint(1, 2)):
        k, attach = gen.rand_attach(rng, current, 1)
        st = Stratum(current, [Cell(f"y{j}", k, attach)])
        strata.append(st)
        current = st_body(st)
    return normalize(base, strata)
