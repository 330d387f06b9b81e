"""The free factorization, adjunction, and the monad/comonad law suite."""

import collections
import gc
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from relcell import (
    ArrowSquare,
    CapExceededError,
    CellComplex,
    CellComplexMorphism,
    DeltaComplex,
    DeltaError,
    EMPTY,
    Factorizer,
    InvariantError,
    SimplicialMap,
    Stratum,
    body,
    boundary_complex,
    boundary_restriction,
    check_awfs_laws,
    coalgebra_structure,
    comonad_comult,
    compose,
    compose_complexes,
    complex_of,
    composes_to,
    composite_left_map,
    decode,
    free_complex,
    generator_complex,
    identity_map,
    is_isomorphism,
    k1_step,
    k_of_square,
    mec,
    monad_mult,
    monad_unit,
    pushforward_complex,
    pushforward_left_map,
    standard_simplex,
    transpose,
    trivial_complex,
    u_of_complex,
    unit,
)
from relcell import gen, jsonio, soa
from relcell.delta import MAX_DIM, boundary_keys
from relcell.cli import builtin_fixtures, main
from conftest import (attach_map, boundary_inclusion, canonical,
                      chain_complex, fold_map, morphism, normal_form,
                      rand_cell_complex, rand_images, rand_transpose_square)


def oracle_squares(g, prev_ids=None):
    """Independent oracle for one gluing stage: brute-force enumeration of
    commuting squares (k-simplex of cod, boundary lift into dom).  Each
    boundary simplex ranges over the simplices of its dimension over its
    target; the face equations are checked on every whole assignment."""
    a, b = g.dom, g.cod
    found = []
    for k in range(b.max_dim + 1):
        bd = boundary_complex(k)
        order = [s for _, s in bd.all_ids()]
        for t in sorted(b.ids(k)):
            tgt = boundary_restriction(b, t)
            pools = [[x for x in sorted(a.ids(bd.dim(s)))
                      if g.assign[x] == tgt.assign[s]] for s in order]
            for combo in itertools.product(*pools):
                assign = dict(zip(order, combo))
                if any(a.faces_of(assign[s]) !=
                       tuple(assign[f] for f in bd.faces_of(s))
                       for s in order if bd.dim(s) >= 1):
                    continue
                if prev_ids is not None and set(assign.values()) <= prev_ids:
                    continue
                found.append((k, t, tuple(sorted(assign.items()))))
    return found


class TestK1Step:
    def test_empty_to_point(self):
        f = SimplicialMap(EMPTY, standard_simplex(0), {})
        st, e1 = k1_step(f)
        assert [k for _, k, _ in st.cells] == [0]
        assert set(e1.assign.values()) == {"0"}

    def test_boundary_one(self):
        f = boundary_inclusion(1)
        st, e1 = k1_step(f)
        assert sorted(k for _, k, _ in st.cells) == [0, 0, 1]

    def test_identity_on_point_glues_before_filtering(self):
        f = identity_map(standard_simplex(0))
        st, _ = k1_step(f)
        assert [k for _, k, _ in st.cells] == [0]

    def test_matches_square_oracle(self):
        """Every stage of ``free_complex``, and the empty stage after the
        last, glues exactly the squares the brute-force oracle finds, with
        their full boundary lifts."""
        rng = random.Random(113)
        for _ in range(15):
            f = gen.rand_map(rng, max_dim=2)
            fr = free_complex(f)
            prev = None
            for n in range(fr.kf.height + 1):
                stage = fr.kf.filtration[n]
                g = SimplicialMap(stage, f.cod,
                                  {s: fr.ef.assign[s] for s in stage.id_set})
                glued = [] if n == fr.kf.height else [
                    (k, fr.ef.assign[cid],
                     tuple(sorted(zip(boundary_keys(k), images))))
                    for cid, k, images in fr.kf.strata[n].cells]
                assert sorted(glued) == sorted(oracle_squares(g, prev))
                prev = stage.id_set

    def test_dim_9_boundary(self):
        # the search recurses once per facet, not once per simplex
        st, _ = k1_step(boundary_inclusion(9))
        assert len(st.cells) == 2 ** 10 - 1
        assert sorted(k for _, k, _ in st.cells) == sorted(
            k for k in range(10) for _ in itertools.combinations(range(10),
                                                                  k + 1))


class TestFreeComplex:
    def test_golden_instance_against_oracle(self):
        f = boundary_inclusion(1)
        fr = free_complex(f)
        assert fr.kf.height == 2
        assert sorted(k for _, k, _ in fr.kf.strata[0].cells) == [0, 0, 1]
        assert sorted(k for _, k, _ in fr.kf.strata[1].cells) == [1, 1, 1]
        assert (len(fr.kf.body.ids(0)), len(fr.kf.body.ids(1))) == (4, 4)
        assert compose(fr.ef, u_of_complex(fr.kf)) == f
        # replay the stage-by-stage construction with the oracle
        g = f
        prev = None
        for st in fr.kf.strata:
            squares = oracle_squares(g, prev)
            assert sorted((k, fr.ef.assign[cid])
                          for cid, k, _ in st.cells) == \
                sorted((k, t) for k, t, _ in squares)
            prev = g.dom.id_set
            g = SimplicialMap(fr.kf.filtration[fr.kf.strata.index(st) + 1],
                              f.cod,
                              {s: fr.ef.assign[s]
                               for s in fr.kf.filtration[
                                   fr.kf.strata.index(st) + 1].id_set})

    def test_empty_to_point(self):
        f = SimplicialMap(EMPTY, standard_simplex(0), {})
        fr = free_complex(f)
        assert fr.kf.height == 1 and fr.stage_counts == [1]
        assert fr.ef.is_bijective()

    def test_empty_codomain(self):
        f = identity_map(EMPTY)
        fr = free_complex(f)
        assert fr.kf.height == 0
        assert fr.ef == f

    def test_each_stratum_glued_once(self):
        rng = random.Random(2032)
        for _ in range(10):
            fr = free_complex(gen.rand_map(rng, max_dim=2))
            for n, st in enumerate(fr.kf.strata):
                assert fr.kf.filtration[n + 1] is body(st)
            assert fr.ef.dom is fr.kf.body

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError) as exc:
            free_complex(boundary_inclusion(1), safety_cap=1)
        assert len(exc.value.stage_counts) == 2

    def test_cell_over_finds_every_cell(self):
        rng = random.Random(2032)
        for _ in range(10):
            fr = free_complex(gen.rand_map(rng, max_dim=2))
            for _, (cid, _, _) in fr.kf.all_cells():
                faces = fr.kf.body.faces_of(cid)
                assert fr.cell_over(fr.ef.assign[cid], faces) == cid

    def test_cell_over_raises_without_a_cell(self):
        fr = free_complex(boundary_inclusion(1))
        # every edge over "01" runs from a vertex over "0" to one over "1"
        for target, faces in [("01", ("0", "0")), ("01", ()),
                              ("nowhere", ())]:
            with pytest.raises(InvariantError, match="internal invariant"):
                fr.cell_over(target, faces)

    def test_free_cells_build_no_attach_map(self, monkeypatch):
        # the cells are glued from the kernel's image tuples: one map per
        # stage (its counit), none per cell
        f = identity_map(standard_simplex(3))
        made = []
        init, owning = SimplicialMap.__init__, SimplicialMap._owning.__func__
        monkeypatch.setattr(SimplicialMap, "__init__", lambda self, *a, **k:
                            made.append(1) or init(self, *a, **k))
        monkeypatch.setattr(SimplicialMap, "_owning", classmethod(
            lambda cls, *a: made.append(1) or owning(cls, *a)))
        fr = free_complex(f)
        cells = [c for _, c in fr.kf.all_cells()]
        assert len(cells) >= 100 and len(made) <= fr.kf.height
        monkeypatch.undo()
        cid, k, images = cells[-1]
        assert attach_map(k, images, fr.kf.body) == \
            boundary_restriction(fr.kf.body, cid)

    def test_properness_mec_exactly_stage(self):
        rng = random.Random(127)
        for _ in range(15):
            f = gen.rand_map(rng, max_dim=2)
            fr = free_complex(f)
            for n, (_, k, images) in fr.kf.all_cells():
                lifted = attach_map(k, images, fr.kf.body)
                assert mec(lifted, fr.kf.filtration) == n


class TestTranspose:
    def test_generator_identity_square(self):
        f = boundary_inclusion(1)
        fr = free_complex(f)
        c = generator_complex(1)
        # the square (id, chi): U(c) -> f, where chi renames the body
        h = SimplicialMap(c.body, f.cod,
                          {s: s if s in f.cod else "01"
                           for s in c.body.id_set})
        m = transpose(c, identity_map(c.boundary), h, fr)
        cid = m.p["cell1"]
        assert fr.kf.stage_of_cell(cid) == 0
        assert fr.kf.cell(cid)[1] == 1

    def test_free_cell_at_another_stage_raises(self):
        # an improper complex: its stage-1 edge attaches inside stage 0, so
        # the free cell over it is glued at stage 0
        pt = standard_simplex(0)
        v = Stratum(pt, [("v", 0, ())])
        bv = body(v)
        e = Stratum(bv, [("e", 1, ("0", "0"))])
        c = CellComplex._owning(pt, [v, e])
        fr = free_complex(u_of_complex(c))
        with pytest.raises(InvariantError, match="not at stage 1"):
            transpose(c, identity_map(pt), identity_map(c.body), fr)

    def test_missing_free_cell_raises_naming_it(self):
        # an index that lacks the free cell over the generator's edge
        f = boundary_inclusion(1)
        fr = free_complex(f)
        index = {key: cid for key, cid in fr._over().items()
                 if key[0] != "01"}
        broken = soa.FactorResult(f, fr.kf, fr.ef, index)
        c = generator_complex(1)
        h = SimplicialMap(c.body, f.cod,
                          {s: s if s in f.cod else "01"
                           for s in c.body.id_set})
        with pytest.raises(InvariantError,
                           match=r"^no free cell over '01' with faces "
                                 r"\('1', '0'\); internal invariant "
                                 r"violated$"):
            transpose(c, identity_map(c.boundary), h, broken)

    def test_trivial_complex(self):
        f = boundary_inclusion(1)
        fr = free_complex(f)
        c = trivial_complex(f.dom)
        m = transpose(c, identity_map(f.dom), f, fr)
        assert m.p == {}

    def test_square_that_does_not_commute_raises(self):
        f = boundary_inclusion(1)
        swap = SimplicialMap(f.dom, f.cod, {"0": "1", "1": "0"})
        with pytest.raises(DeltaError,
                           match="^transpose: square does not commute$"):
            transpose(trivial_complex(f.dom), identity_map(f.dom), swap,
                      free_complex(f))

    def test_counit_failure_is_an_invariant_error(self):
        # a factorization whose ef does not restrict to f on the base
        f = boundary_inclusion(1)
        fr = free_complex(f)
        ef = SimplicialMap._owning(fr.ef.dom, fr.ef.cod,
                                   {**fr.ef.assign, "0": "1", "1": "0"})
        broken = soa.FactorResult(f, fr.kf, ef)
        with pytest.raises(InvariantError,
                           match="^transpose does not factor the given "
                                 "square$"):
            transpose(trivial_complex(f.dom), identity_map(f.dom), f, broken)

    def test_transpose_of_counit_is_identity(self, fz):
        for _, f in builtin_fixtures():
            fr = fz.k(f)
            m = transpose(fr.kf, identity_map(f.dom), fr.ef, fr)
            assert m.body_map == identity_map(fr.kf.body)
            assert m.p == {cid: cid for cid in fr.kf.cell_ids}

    def test_counit_reproduces_square(self, fz):
        rng = random.Random(131)
        for _ in range(25):
            c = rand_cell_complex(rng, max_cells=3)
            f, g0, h = rand_transpose_square(rng, c)
            m = transpose(c, g0, h, fz.k(f))
            assert m.f0 == g0
            assert compose(fz.k(f).ef, m.body_map) == h

    def test_uniqueness_exhaustive_on_tiny_instances(self, fz):
        rng = random.Random(137)
        checked = 0
        while checked < 8:
            c = rand_cell_complex(rng, max_dim=1, max_cells=3)
            if not 1 <= len(list(c.all_cells())) <= 3:
                continue
            f, g0, h = rand_transpose_square(rng, c)
            fr = fz.k(f)
            expected = transpose(c, g0, h, fr)
            found = exhaustive_transposes(c, g0, h, fr)
            assert found == [tuple(sorted(expected.p.items()))]
            checked += 1


def exhaustive_transposes(c, g0, h, fr):
    """All morphisms c -> Kf over g0 whose body composes with ef to h."""
    cells = [(n, cl) for n, cl in c.all_cells()]
    pools = []
    for n, (_, k, _) in cells:
        pool = [x for m, (x, dim, _) in fr.kf.all_cells()
                if m == n and dim == k]
        pools.append(pool)
    results = []
    for combo in itertools.product(*pools):
        p = {cl[0]: t for (_, cl), t in zip(cells, combo)}
        try:
            m = morphism(c, fr.kf, g0, p)
        except Exception:
            continue
        if compose(fr.ef, m.body_map) == h:
            results.append(tuple(sorted(p.items())))
    return results


class TestUnitAndDecode:
    def test_counit_law_for_trivial(self, fz):
        x = standard_simplex(1)
        c = trivial_complex(x)
        al = coalgebra_structure(c, fz)
        fr = fz.k(u_of_complex(c))
        assert compose(fr.ef, al) == identity_map(x)

    def test_generator_unit_hits_identity_lift_cell(self, fz):
        for k in range(3):
            c = generator_complex(k)
            m = unit(c, fz)
            cid = m.p[f"cell{k}"]
            fr = fz.k(u_of_complex(c))
            assert fr.kf.stage_of_cell(cid) == 0

    def test_roundtrip_corpus(self, fz):
        rng = random.Random(139)
        for _ in range(25):
            c = rand_cell_complex(rng, max_cells=5)
            fr = fz.k(u_of_complex(c))
            al = coalgebra_structure(c, fz)
            assert compose(fr.ef, al) == identity_map(c.body)
            assert decode(u_of_complex(c), al, fr) == c


    def test_decode_rejects_a_section_that_moves_the_base(self, fz):
        # over the boundary of the 1-simplex: 0 and 1 go to the free
        # 0-cells, 01 to the stage-1 edge between them.  Then ef o alpha is
        # the identity, but alpha o f is not lf.
        f = boundary_inclusion(1)
        fr = fz.k(f)
        a = {"0": fr.cell_over("0", ()), "1": fr.cell_over("1", ())}
        a["01"] = fr.cell_over("01", (a["1"], a["0"]))
        assert fr.kf.stage_of_cell(a["01"]) == 1
        alpha = SimplicialMap(f.cod, fr.kf.body, a)
        assert compose(fr.ef, alpha) == identity_map(f.cod)
        assert compose(alpha, f) != u_of_complex(fr.kf)
        with pytest.raises(DeltaError, match="not a coalgebra structure"):
            decode(f, alpha, fr)
        with pytest.raises(DeltaError, match="endpoints do not match"):
            decode(f, identity_map(f.cod), fr)
        c = complex_of(f.dom, f.cod)
        assert decode(f, coalgebra_structure(c, fz), fr) == c


class TestLaws:
    @pytest.mark.parametrize("name,f", builtin_fixtures())
    def test_all_nine_laws(self, fz, name, f):
        rng = random.Random(sum(name.encode()))
        squares = [gen.rand_nat_square(rng, f) for _ in range(5)]
        rep = check_awfs_laws(f, squares, factorizer=fz)
        assert rep["all_pass"], (name, rep)
        assert len(rep["laws"]) == 9

    def test_monad_unit_square_shape(self, fz):
        f = boundary_inclusion(1)
        sq = monad_unit(f, fz)
        assert sq.left == f
        assert sq.bottom == identity_map(f.cod)

    def test_strong_distributivity(self, fz):
        # the unwhiskered form of the distributive-law equation
        for _, f in builtin_fixtures()[:3]:
            fr = fz.k(f)
            fr2 = fz.k(fr.ef)
            mu = monad_mult(f, fz)
            delta = comonad_comult(f, fz)
            lf = u_of_complex(fr.kf)
            fru = fz.k(lf)
            fr_uef = fz.k(u_of_complex(fr2.kf))
            freu = fz.k(fru.ef)
            mu_ukf = monad_mult(lf, fz)
            delta_ef = comonad_comult(fr.ef, fz)
            kdm = k_of_square(delta, mu, fr_uef, freu)
            assert compose(delta, mu) == \
                compose(mu_ukf, compose(kdm, delta_ef))

    def test_failing_law_carries_its_composite(self, fz, monkeypatch):
        # every law reads as failed: each witness is both sides in full
        f = boundary_inclusion(1)
        sq = ArrowSquare(top=identity_map(f.dom), bottom=identity_map(f.cod),
                         left=f, right=f)
        monkeypatch.setattr(soa, "composes_to", lambda f, g, h: False)
        rep = check_awfs_laws(f, [sq], factorizer=fz)
        fr = fz.k(f)
        assert not rep["all_pass"] and not any(rep["laws"].values())
        assert rep["witnesses"].pop("naturality_0") == {"eta": False,
                                                        "mu": False}
        assert set(rep["witnesses"]) == set(rep["laws"]) - {"naturality"}
        assert rep["witnesses"]["factorization"] == {
            "lhs": sorted(compose(fr.ef, u_of_complex(fr.kf)).assign.items()),
            "rhs": sorted(f.assign.items())}
        for w in rep["witnesses"].values():
            assert w["lhs"] == w["rhs"]

    def test_cap_reached_carries_the_partial_report(self):
        # f: empty -> point factors in one stage; the naturality square's
        # g: point -> simplex 2 needs two, past the cap of one
        pt = standard_simplex(0)
        f = SimplicialMap(EMPTY, pt, {})
        b = SimplicialMap(pt, standard_simplex(2), {"0": "0"})
        sq = ArrowSquare(top=identity_map(EMPTY), bottom=b, left=f,
                         right=compose(b, f))
        with pytest.raises(CapExceededError) as err:
            check_awfs_laws(f, [sq], factorizer=soa.Factorizer(1))
        assert err.value.stage_counts == [3, 3]
        report = err.value.partial_report
        assert len(report) == 8 and "naturality" not in report
        assert all(ok is True for ok in report.values())

    def test_mu_trivial_for_empty_codomain(self, fz):
        f = identity_map(EMPTY)
        assert monad_mult(f, fz) == identity_map(EMPTY)


class TestMemoizedStructureMaps:
    def test_cached_maps_equal_fresh_ones(self):
        rng = random.Random(2035)
        fz = soa.Factorizer()
        for _ in range(8):
            f = gen.rand_map(rng, max_dim=1)
            for structure_map in (monad_mult, comonad_comult):
                first = structure_map(f, fz)
                assert structure_map(f, fz) is first
                assert first == structure_map(f, soa.Factorizer())
            for _ in range(3):
                sq = gen.rand_nat_square(rng, f)
                a, b = sq.top, sq.bottom
                fr_f, fr_g = fz.k(f), fz.k(sq.right)
                first = k_of_square(a, b, fr_f, fr_g)
                assert isinstance(first, SimplicialMap)
                assert (first.dom, first.cod) == (fr_f.kf.body, fr_g.kf.body)
                assert first == transpose(fr_f.kf, a, compose(b, fr_f.ef),
                                          fr_g).body_map
                assert k_of_square(a, b, fr_f, fr_g) is first
                assert first == k_of_square(a, b, soa.Factorizer().k(f),
                                            soa.Factorizer().k(sq.right))
                # an equal Kf from another session hits the same memo entry
                other = soa.Factorizer().k(f)
                assert k_of_square(a, b, other, fr_g) == first
                assert first.dom == other.kf.body

    def test_k_of_square_depends_on_b(self):
        # f: empty -> point, g the identity on two points: the squares
        # (empty map, b) for the two points b differ only in b
        pt = standard_simplex(0)
        f = SimplicialMap(EMPTY, pt, {})
        g = identity_map(fold_map().dom)
        a = SimplicialMap(EMPTY, g.dom, {})
        fz = soa.Factorizer()
        fr_f, fr_g = fz.k(f), fz.k(g)
        maps = []
        for point in sorted(g.cod.id_set):
            b = SimplicialMap(pt, g.cod, {"0": point})
            m = k_of_square(a, b, fr_f, fr_g)
            assert compose(fr_g.ef, m) == compose(b, fr_f.ef)
            maps.append(m)
        assert maps[0] != maps[1]

    def test_k_of_square_rejects_a_bad_square(self):
        # (a, b): f -> g is given by its two maps; transpose and compose
        # check them, and a call that raises caches nothing
        pt = standard_simplex(0)
        f = identity_map(fold_map().dom)
        two = f.dom
        swap = SimplicialMap(two, two, {"0.0": "1.0", "1.0": "0.0"})
        fr = soa.Factorizer().k(f)
        for a, b, message in [
                (swap, f, "transpose: square does not commute"),
                (identity_map(pt), f,
                 "transpose: base map endpoints do not match"),
                (f, identity_map(pt), "composition endpoint mismatch"),
                (f, fold_map(), "transpose: body map endpoints do not match")]:
            with pytest.raises(DeltaError, match=message):
                k_of_square(a, b, fr, fr)
        assert fr._k_into == {}

    def test_law_suite_composes_once_per_multiplication(self, monkeypatch):
        needed, composed = set(), []
        mult, compose_cx = soa.monad_mult, soa.compose_complexes

        def counting_mult(f, factorizer):
            needed.add(f)
            return mult(f, factorizer)

        def counting_compose(a, b):
            composed.append((a, b))
            return compose_cx(a, b)

        monkeypatch.setattr(soa, "monad_mult", counting_mult)
        monkeypatch.setattr(soa, "compose_complexes", counting_compose)
        fz = soa.Factorizer()
        rng = random.Random(2033)
        for _, f in builtin_fixtures():
            squares = [gen.rand_nat_square(rng, f) for _ in range(5)]
            assert check_awfs_laws(f, squares, factorizer=fz)["all_pass"]
        assert len(composed) == len(needed) > 0

    def test_memo_holds_no_reference_cycle(self):
        # K(1, 1): f -> f is cached on f's own result
        rng = random.Random(2033)
        work = [(f, [gen.rand_nat_square(rng, f),
                     ArrowSquare(top=identity_map(f.dom),
                                 bottom=identity_map(f.cod), left=f, right=f)])
                for _, f in builtin_fixtures()]
        gc.collect()
        gc.disable()
        try:
            fz = soa.Factorizer()
            for f, squares in work:
                check_awfs_laws(f, squares, factorizer=fz)
            del fz
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLeftMapStructures:
    def test_composite_with_trivial_second_leg(self, fz):
        c = generator_complex(1)
        f = u_of_complex(c)
        alpha = coalgebra_structure(c, fz)
        g = identity_map(f.cod)
        beta = coalgebra_structure(trivial_complex(f.cod), fz)
        out = composite_left_map(f, alpha, g, beta, fz)
        assert out == coalgebra_structure(
            compose_complexes(c, trivial_complex(c.body)), fz)

    def test_composite_agreement_zero_then_one_cell(self, fz):
        a = CellComplex(EMPTY, [Stratum(EMPTY, [("v", 0, ())])])
        b = CellComplex(a.body, [Stratum(a.body, [("e", 1, ("v", "v"))])])
        alpha = coalgebra_structure(a, fz)
        beta = coalgebra_structure(b, fz)
        out = composite_left_map(u_of_complex(a), alpha,
                                 u_of_complex(b), beta, fz)
        assert out == coalgebra_structure(compose_complexes(a, b), fz)

    def test_composite_agreement_random(self, fz):
        rng = random.Random(149)
        for _ in range(8):
            a = rand_cell_complex(rng, max_dim=1, max_cells=3,
                                  prefix="a")
            b = rand_on_body(rng, a.body)
            lhs = composite_left_map(
                u_of_complex(a), coalgebra_structure(a, fz),
                u_of_complex(b), coalgebra_structure(b, fz), fz)
            assert lhs == coalgebra_structure(compose_complexes(a, b), fz)

    def test_pushforward_agreement_loop(self, fz):
        b1 = boundary_complex(1)
        c = CellComplex(b1, [Stratum(b1, [("e", 1, ("0", "1"))])])
        g = SimplicialMap(b1, standard_simplex(0), {"0": "0", "1": "0"})
        alpha = coalgebra_structure(c, fz)
        pushed, structure = pushforward_left_map(u_of_complex(c), alpha,
                                                 g, fz)
        pc, _ = pushforward_complex(c, g)
        assert pushed == u_of_complex(pc)
        assert structure == coalgebra_structure(pc, fz)

    def test_pushforward_agreement_random(self, fz):
        rng = random.Random(151)
        for _ in range(8):
            c = rand_cell_complex(rng, max_dim=1, max_cells=3)
            g = gen.rand_map_from(rng, c.boundary)
            pushed, structure = pushforward_left_map(
                u_of_complex(c), coalgebra_structure(c, fz), g, fz)
            pc, _ = pushforward_complex(c, g)
            assert pushed == u_of_complex(pc)
            assert structure == coalgebra_structure(pc, fz)


def rand_on_body(rng, base):
    from relcell.strata import body as st_body
    strata = []
    current = base
    for j in range(rng.randint(1, 2)):
        k, images = rand_images(rng, current, 1)
        st = Stratum(current, [(f"x{j}", k, images)])
        strata.append(st)
        current = st_body(st)
    return normal_form(base, strata)


def renaming(x, names):
    """The bijection from x onto the complex with each id s renamed to
    ``names[s]``; ``names`` must be one-to-one on x's ids."""
    name = names.__getitem__
    y = DeltaComplex({k: tuple(map(name, ids))
                      for k, ids in x.simplices.items()},
                     {name(s): tuple(map(name, fs))
                      for s, fs in x.faces.items()})
    return SimplicialMap(x, y, names)


def _shuffled(x, rng):
    """A seeded permutation of x's own ids."""
    ids = sorted(x.id_set)
    return dict(zip(ids, rng.sample(ids, len(ids))))


def _numbered(*pool):
    """New names for x's ids: numbered in sorted order, each after an
    entry of ``pool``."""
    return lambda x, rng: {s: f"{pool[i % len(pool)]}{i}"
                           for i, s in enumerate(sorted(x.id_set))}


# how the ids of a map's domain and of its codomain are renamed
_RENAMINGS = {
    "seeded": (_shuffled, _shuffled),
    "hostile": (_numbered("\x00", "%", '"]], [', "\ud800"),
                _numbered("\udfff", "%s", "\x00%")),
    "cell-id-shaped": (_numbered("0.", "1.0."), _numbered("0.", "0.0.")),
}


@pytest.mark.parametrize("kind", sorted(_RENAMINGS))
def test_k_is_equivariant_under_renamings(kind):
    """K is a functor on renamings: for a renaming (s0, s1): f -> f' of a
    map, E = K(s0, s1) is an isomorphism Kf -> Kf' over s1, E of the
    inverse renaming undoes it, and the stage counts agree.  Ids holding
    NUL, ``%``, JSON punctuation or a lone surrogate, or shaped like the
    ids a coproduct or a free cell gets, change nothing."""
    rng, names_rng = random.Random(12), random.Random(13)
    dom_names, cod_names = _RENAMINGS[kind]
    fz = Factorizer()
    for _ in range(6):
        f = gen.rand_map(rng, max_dim=3)
        s0 = renaming(f.dom, dom_names(f.dom, names_rng))
        s1 = renaming(f.cod, cod_names(f.cod, names_rng))
        g = SimplicialMap(s0.cod, s1.cod, {s0.assign[s]: s1.assign[t]
                                           for s, t in f.assign.items()})
        fr, gr = fz.k(f), fz.k(g)
        e = k_of_square(s0, s1, fr, gr)
        assert is_isomorphism(CellComplexMorphism(fr.kf, gr.kf, e))
        assert composes_to(gr.ef, e, compose(s1, fr.ef))
        back = k_of_square(s0.inverse(), s1.inverse(), gr, fr)
        assert compose(back, e) == identity_map(fr.kf.body)
        assert gr.stage_counts == fr.stage_counts


class TestTermination:
    def test_height_bound_over_corpus(self):
        rng = random.Random(157)
        for _ in range(20):
            f = gen.rand_map(rng, max_dim=3)
            fr = free_complex(f)
            assert fr.kf.height <= f.cod.max_dim + 1


def oracle_cell_id(digest, stage, k, t, u):
    """The cell id as first specified: the lift is ``json.dumps`` of the
    sorted assignment, then SHA-1."""
    lift = json.dumps(sorted(u.assign.items())).encode()
    return f"{digest}.{stage}.{k}.{t}.{hashlib.sha1(lift).hexdigest()[:12]}"


def test_map_digest_hashes_the_canonical_form():
    """A cell id's map digest is 10 hex digits of the SHA-1 of the
    ``repr`` of the map's sorted form, endpoints first."""
    rng = random.Random(2035)
    maps = [gen.rand_map(rng, max_dim=3) for _ in range(30)]
    maps += [SimplicialMap(EMPTY, EMPTY, {}), fold_map()]
    for f in maps:
        raw = repr(canonical(f)).encode()
        assert soa._map_digest(f) == hashlib.sha1(raw).hexdigest()[:10]


_IMAGES = st.sampled_from(
    ['"', "\\", "{", "}", "{}", "{0}", "null", "\x00", "\x1f", "\x7f",
     "caf\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff", '"]], [',
     "%", "%s", "%%", "%(x)s", "%d"]) | \
    st.text(st.characters(categories=["Cc", "Cs", "Lo", "Po", "Ps", "Pe"]),
            max_size=4) | st.text(max_size=4)


def lift_of(k, images):
    """The boundary lift of shape k with ``images`` in key order, as the
    oracle reads it: only its assignment."""
    return SimplicialMap._owning(boundary_complex(k), EMPTY,
                                 dict(zip(boundary_keys(k), images)))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, MAX_DIM),
       pool=st.lists(_IMAGES, min_size=1, max_size=6),
       picks=st.randoms(use_true_random=False), stage=st.integers(0, 40),
       targets=st.lists(_IMAGES, min_size=1, max_size=5))
def test_cell_id_matches_the_json_dumps_oracle(k, pool, picks, stage,
                                               targets):
    """The templated id writer gives the oracle's bytes for every shape,
    for a batch of lifts with images drawn from a hostile pool (NUL, ``%``,
    JSON punctuation, lone surrogates), with a fresh or a warm escape memo.
    The id reads only the assignment, so a lift need not be a simplicial
    map."""
    width = len(boundary_keys(k))
    lifts = [tuple(picks.choice(pool) for _ in range(width))
             for _ in targets]
    want = [oracle_cell_id("0123456789", stage, k, t, lift_of(k, images))
            for t, images in zip(targets, lifts)]
    escape = soa._Escapes().__getitem__
    for _ in range(2):
        assert soa._cell_ids("0123456789", stage, k, targets, lifts,
                             escape) == want


@pytest.mark.parametrize("n", [1, 256, 257])
@pytest.mark.parametrize("k", [0, 2])
def test_cell_ids_across_the_chunk_bound(n, k):
    """A batch of 1, 256 or 257 lifts, sizes that ids were once filled
    in chunks by: every id is the oracle's, in the order of the lifts."""
    pool = ["\x00", "%", "%s", '"]], [', "\ud800", "caf\u00e9", "a",
            "\U0001f600"]
    width = len(boundary_keys(k))
    lifts = [tuple(pool[(i + j) % len(pool)] for j in range(width))
             for i in range(n)]
    targets = [pool[i % len(pool)] + str(i) for i in range(n)]
    ids = soa._cell_ids("0123456789", 3, k, targets, lifts,
                        soa._Escapes().__getitem__)
    assert ids == [oracle_cell_id("0123456789", 3, k, t, lift_of(k, images))
                   for t, images in zip(targets, lifts)]


def test_free_complex_escapes_each_id_once(monkeypatch, tmp_path):
    """One factorization shares one memo of escaped ids across its stages,
    so no id is escaped twice, though the ids a stage glues recur as
    images in the lifts of later stages.  ``relcell factor --out`` passes
    that memo on to the document it writes, so over the whole run each id
    the file holds is escaped exactly once."""
    counts = collections.Counter()
    missing = soa._Escapes.__missing__

    def counted(self, s):
        counts[s] += 1
        return missing(self, s)

    monkeypatch.setattr(soa._Escapes, "__missing__", counted)
    fr = free_complex(identity_map(chain_complex(3)))
    assert len(fr.stage_counts) > 2
    assert counts and max(counts.values()) == 1
    counts.clear()
    src, out = tmp_path / "f.json", tmp_path / "fr.json"
    src.write_text(jsonio.dumps(jsonio.map_to_json(fr.input)))
    assert main(["factor", str(src), "--out", str(out)]) == 0
    assert counts.keys() == fr.kf.body.id_set | fr.input.cod.id_set
    assert max(counts.values()) == 1
    assert out.read_bytes() == b"".join(jsonio.document(fr))
