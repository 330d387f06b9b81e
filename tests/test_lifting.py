"""Filler tables and the stagewise lifting solver."""

import random
import re

import pytest

from relcell import (
    CellComplex,
    DeltaError,
    EMPTY,
    FillerTable,
    InvariantError,
    LiftError,
    SimplicialMap,
    Stratum,
    boundary_complex,
    boundary_restriction,
    coalgebra_structure,
    comonad_comult,
    compose,
    compose_complexes,
    coproduct,
    enumerate_homs,
    free_complex,
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
from relcell.delta import boundary_keys, facet_ids
from conftest import (boundary_inclusion, fold_map, normal_form,
                      rand_cell_complex, rand_images)


class TestFreeFillers:
    def test_zero_cell_square(self, fz):
        f = SimplicialMap(EMPTY, standard_simplex(0), {})
        fr = fz.k(f)
        ft = free_fillers(fr)
        u = SimplicialMap(EMPTY, fr.kf.body, {})
        e = ft.filler(u, "0")
        assert e == next(cid for _, (cid, _, _) in fr.kf.all_cells())

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
        fresh = next(cid for cid, k, _ in fr.kf.strata[0].cells if k == 0
                     and fr.ef.assign[cid] == "1")
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
        c = CellComplex(EMPTY, [Stratum(EMPTY, [("v", 0, ())])])
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
            c = rand_cell_complex(rng, max_cells=4)
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
            a = rand_cell_complex(rng, max_dim=1, max_cells=3,
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
        cells = [(f"l{i}", 1, ("0", "0")) for i in range(3)]
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
        c = CellComplex(EMPTY, [Stratum(EMPTY, [("v", 0, ())])])
        ft = FillerTable(p, fallback="search")
        with pytest.raises(LiftError) as exc:
            solve_lifting(c, ft, (SimplicialMap(EMPTY, pt, {}),
                                  SimplicialMap(c.body, d1, {"v": "1"})))
        assert exc.value.square == square_key(0, "1", {})

    @pytest.mark.parametrize("entries, fallback", [
        ({square_key(0, "0", {}): "nope"}, "search"),  # bad entry
        ({}, "fail"),                                  # no entry
        ({}, lambda target, faces: "0"),               # bad choice
    ])
    def test_filler_errors_report_square(self, entries, fallback):
        """The key that is built only on demand still names the square."""
        fold = fold_map()
        ft = FillerTable(fold, entries, fallback)
        u = SimplicialMap(EMPTY, fold.dom, {})
        with pytest.raises(LiftError) as exc:
            ft.filler(u, "0")
        assert exc.value.square == square_key(0, "0", {})

    def test_chooser_receives_target_and_facets(self, fz):
        fr = fz.k(boundary_inclusion(2))
        calls = []

        def chooser(target, faces):
            calls.append((target, faces))
            return fr.cell_over(target, faces)

        c = fr.kf
        d = solve_lifting(c, FillerTable(fr.ef, fallback=chooser),
                          (u_of_complex(c), fr.ef))
        assert d == identity_map(c.body)
        assert calls == [(fr.ef.assign[cid], c.body.faces_of(cid))
                         for _, (cid, _, _) in c.all_cells()]

    @pytest.mark.parametrize("u, target, message", [
        (SimplicialMap(EMPTY, standard_simplex(1), {}), "01",
         "square over '01': u is not a map from the boundary of a "
         "1-simplex into the domain"),
        (SimplicialMap(boundary_complex(1), standard_simplex(0),
                       {"0": "0", "1": "0"}), "01",
         "square over '01': u is not a map from the boundary of a "
         "1-simplex into the domain"),
        (SimplicialMap(boundary_complex(1), standard_simplex(1),
                       {"0": "0", "1": "1"}), "zz",
         "square over 'zz': the target is not a simplex of the codomain"),
    ], ids=["lift-from-elsewhere", "lift-into-elsewhere", "target-elsewhere"])
    def test_malformed_square_is_delta_error(self, u, target, message):
        """A square that is not one into p is a DeltaError that names it,
        not a KeyError from inside the table."""
        ft = FillerTable(identity_map(standard_simplex(1)))
        with pytest.raises(DeltaError) as exc:
            ft.filler(u, target)
        assert type(exc.value) is DeltaError
        assert str(exc.value) == message

    def test_solver_builds_no_map_per_cell(self, monkeypatch):
        """``solve_lifting`` builds as many maps on 266 cells as on 6."""
        built = []
        init, owning = SimplicialMap.__init__, SimplicialMap._owning.__func__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_owning(cls, *args):
            built.append(cls)
            return owning(cls, *args)

        small, large = (free_complex(boundary_inclusion(k)) for k in (1, 3))
        assert len(large.kf.cell_ids) >= 100
        counts = []
        for fr in (small, large):
            square = (u_of_complex(fr.kf), fr.ef)
            tables = (free_fillers(fr), FillerTable(fr.ef))
            with monkeypatch.context() as m:
                m.setattr(SimplicialMap, "__init__", counted_init)
                m.setattr(SimplicialMap, "_owning",
                          classmethod(counted_owning))
                for ft in tables:
                    built.clear()
                    solve_lifting(fr.kf, ft, square)
                    counts.append(len(built))
        assert counts[:2] == counts[2:]


class TestVerify:
    def test_malformed_entries_reported(self):
        """An entry of the wrong dimension for its target, over a target
        outside p's codomain, with a boundary missing or adding a simplex,
        or with a boundary that is not a map, is a failure of the report,
        not an exception nor a silent pass."""
        p = identity_map(standard_simplex(1))
        bad = {square_key(1, "0", {"0": "0", "1": "1"}): "01",
               square_key(0, "zz", {}): "0",
               square_key(1, "01", {"0": "0"}): "01"}
        rep = verify_fillers(FillerTable(p, bad, fallback="search"))
        assert [f["square"] for f in rep["failures"]] == sorted(bad)
        assert not rep["ok"]
        p = identity_map(standard_simplex(2))
        for entry, reason in [
                (square_key(1, "01", {"0": "0", "1": "1", "zz": "2"}),
                 "assignment is not total on the domain"),
                (square_key(2, "012", {"0": "0", "01": "01", "02": "02",
                                       "1": "2", "12": "12", "2": "2"}),
                 "face commutation fails at '01'")]:
            rep = verify_fillers(FillerTable(p, {entry: entry[1]},
                                             fallback="search"))
            assert rep["failures"] == [{"square": entry, "reason": reason}]
            assert not rep["ok"]

    @pytest.mark.parametrize("dim,reason", [(-1, "k must be >= 0"),
                                            (10, "k <= 9 only")])
    def test_entry_of_a_dim_out_of_range_reported(self, dim, reason):
        """An entry whose dim has no standard simplex is a failure of the
        report too, not an exception out of the audit."""
        key = (dim, "01", ())
        rep = verify_fillers(FillerTable(boundary_inclusion(1), {key: "0"},
                                         "fail"))
        assert rep["failures"][0]["square"] == key
        assert reason in rep["failures"][0]["reason"]
        assert not rep["ok"]

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

    def test_squares_checked_in_ascending_key_order(self):
        """The audit checks the squares of ``enumerate_homs`` (the oracle),
        each once, in ascending ``square_key`` order, not in its order."""
        p = free_complex(boundary_inclusion(2)).ef
        rep = verify_fillers(FillerTable(p, fallback="fail"))
        got = [f["square"] for f in rep["failures"]]
        oracle = [square_key(k, b, u.assign) for k, b in p.cod.all_ids()
                  for u in enumerate_homs(boundary_complex(k), p.dom, post=(
                      p, boundary_restriction(p.cod, b)))]
        assert len(got) == rep["checked"] == 33
        assert all(a < b for a, b in zip(got, got[1:]))
        assert got == sorted(oracle)

    def test_fail_fallback(self):
        pt = standard_simplex(0)
        ft = FillerTable(identity_map(pt), fallback="fail")
        with pytest.raises(LiftError):
            ft.filler(SimplicialMap(EMPTY, pt, {}), "0")


def rand_on(rng, base):
    from relcell.strata import body as st_body
    strata = []
    current = base
    for j in range(rng.randint(1, 2)):
        k, images = rand_images(rng, current, 1)
        st = Stratum(current, [(f"y{j}", k, images)])
        strata.append(st)
        current = st_body(st)
    return normal_form(base, strata)


# -- the per-cell-map solver, kept as an oracle --------------------------------


def reference_filler(ft, u, target):
    """``FillerTable.filler`` as it was: the facets read off the boundary
    lift u by ``facet_ids``.  A chooser then took u itself; here it gets
    the facets read off u, as the old ``free_fillers`` closure did."""
    p = ft.p
    dim = p.cod.dim(target)
    faces = tuple(u.assign[s] for s in facet_ids(dim))

    def validated(e):
        if e not in p.dom or p.dom.dim(e) != dim:
            problem = f"is not a {dim}-simplex of the domain"
        elif p.assign[e] != target:
            problem = f"does not map to {target!r}"
        elif dim >= 1 and p.dom.faces_of(e) != faces:
            problem = "has wrong faces"
        else:
            return e
        raise LiftError(f"filler {e!r} {problem}",
                        square_key(dim, target, u.assign))

    key = square_key(dim, target, u.assign)
    if key in ft.entries:
        return validated(ft.entries[key])
    if callable(ft.fallback):
        return validated(ft.fallback(target, faces))
    if ft.fallback == "search":
        found = p.prefix_index(dim).get((target, faces))
        if found:
            return found[0]
        raise LiftError(f"no filler exists for target {target!r}", key)
    raise LiftError(f"no table entry for target {target!r}", key)


def reference_solve(c, ft, square):
    """``solve_lifting`` as it was: one boundary lift map per cell."""
    u, v = square
    i = u_of_complex(c)
    p = ft.p
    if u.dom != c.boundary or u.cod != p.dom or \
            v.dom != c.body or v.cod != p.cod:
        raise DeltaError("lifting square endpoints do not match")
    if compose(p, u) != compose(v, i):
        raise DeltaError("lifting square does not commute")
    d_assign = dict(u.assign)
    for _, (cid, k, images) in c.all_cells():
        w = SimplicialMap(boundary_complex(k), p.dom,
                          {s: d_assign[t] for s, t in
                           zip(boundary_keys(k), images)})
        d_assign[cid] = reference_filler(ft, w, v.assign[cid])
    d = SimplicialMap(c.body, p.dom, d_assign)
    if compose(d, i) != u:
        raise InvariantError("lift does not restrict to the given map")
    if compose(p, d) != v:
        raise InvariantError("lift does not project to the given map")
    return d


def _outcome(solve, c, ft, square):
    try:
        return solve(c, ft, square)
    except LiftError as err:
        return "LiftError", err.square, str(err)
    except (DeltaError, InvariantError) as err:
        return type(err).__name__, str(err)


def _lifting_problems(fz):
    """Seeded squares: each free factorization's Kf against its ef (which
    lifts) and against the input map (which mostly does not), and the
    unit square of random cell complexes."""
    rng = random.Random(421)
    for _ in range(12):
        f = gen.rand_map(rng, max_dim=2)
        fr = fz.k(f)
        yield fr.kf, fr.ef, (u_of_complex(fr.kf), fr.ef), fr
        yield fr.kf, f, (identity_map(f.dom), fr.ef), None
    for _ in range(8):
        c = rand_cell_complex(rng, max_cells=5)
        fr = fz.k(u_of_complex(c))
        yield c, fr.ef, (u_of_complex(fr.kf), identity_map(c.body)), fr


def _tables(rng, c, p, square, fr):
    """The four kinds of table on one square: free fillers (where p is a
    free ef), search, explicit entries with one corrupt, and a callable
    fallback that picks the first simplex of the right dimension."""
    if fr is not None:
        yield free_fillers(fr)
    search = FillerTable(p, fallback="search")
    yield search
    d = _outcome(reference_solve, c, search, square)
    if not isinstance(d, tuple) and c.cell_ids:
        entries = {}
        for _, (cid, k, images) in c.all_cells():
            lift = {s: d.assign[t] for s, t in zip(boundary_keys(k), images)}
            key = square_key(k, square[1].assign[cid], lift)
            entries[key] = d.assign[cid]
        yield FillerTable(p, entries, fallback="fail")
        corrupt = dict(entries)
        key = rng.choice(sorted(corrupt))
        corrupt[key] = rng.choice(sorted(p.dom.ids(key[0])))
        yield FillerTable(p, corrupt, fallback="fail")
        del corrupt[key]
        yield FillerTable(p, corrupt, fallback="fail")
        yield FillerTable(p, corrupt, fallback="search")
    yield FillerTable(p, fallback=lambda target, faces: min(
        p.dom.ids(max(len(faces) - 1, 0)), default="nope"))


def test_solver_matches_per_cell_map_oracle(fz):
    """Lifts, and failures with their squares and messages, are those of
    the solver that built one map per cell."""
    rng = random.Random(431)
    kinds = set()
    for c, p, square, fr in _lifting_problems(fz):
        for ft in _tables(rng, c, p, square, fr):
            got = _outcome(solve_lifting, c, ft, square)
            assert got == _outcome(reference_solve, c, ft, square)
            kinds.add(re.sub("'[^']*'", "_", got[-1])
                      if isinstance(got, tuple) else "lift")
    assert kinds == {"lift", "no filler exists for target _",
                     "no table entry for target _",
                     "filler _ is not a 0-simplex of the domain",
                     "filler _ does not map to _",
                     "filler _ has wrong faces"}
