"""Single gluing layers: bodies, morphisms, pushforwards, colimits."""

import random

import pytest

from relcell import (
    Cell,
    CellComplex,
    DeltaComplex,
    DeltaError,
    EMPTY,
    SimplicialMap,
    StrataError,
    StrataMorphism,
    Stratum,
    boundary_complex,
    body,
    characteristic_map,
    compose,
    compose_strata_morphisms,
    coproduct,
    enumerate_homs,
    identity_map,
    identity_strata_morphism,
    inclusion_map,
    is_pullback,
    pushforward_complex,
    pushforward_morphism,
    pushforward_stratum,
    pushout,
    standard_simplex,
    strata_colimit,
    strata_equaliser,
    top_simplex_id,
    u_of_strata_morphism,
)
from relcell import gen


def loop_stratum():
    pt = standard_simplex(0)
    attach = SimplicialMap(boundary_complex(1), pt, {"0": "0", "1": "0"})
    return Stratum(pt, [Cell("loop", 1, attach)])


def generic_body_oracle(st):
    """Independent oracle: the body as a genuine pushout of coproducts."""
    shapes = [standard_simplex(c.dim) for c in st.cells]
    bds = [boundary_complex(c.dim) for c in st.cells]
    total_bd, bd_legs = coproduct(bds)
    total_sh, sh_legs = coproduct(shapes)
    inc_assign = {}
    for leg_b, leg_s in zip(bd_legs, sh_legs):
        for s, t in leg_b.assign.items():
            inc_assign[t] = leg_s.assign[s]
    inc = SimplicialMap(total_bd, total_sh, inc_assign)
    att_assign = {}
    for cell, leg_b in zip(st.cells, bd_legs):
        for s, t in leg_b.assign.items():
            att_assign[t] = cell.attach.assign[s]
    att = SimplicialMap(total_bd, st.boundary, att_assign)
    return pushout(inc, att)


def iso_over(x, y, fx, fy):
    """Find a bijective map x -> y commuting with the cocone legs."""
    for h in enumerate_homs(x, y, pre=(fx, fy)):
        if h.is_bijective():
            return h
    return None


class TestBody:
    def test_loop(self):
        st = loop_stratum()
        bx = body(st)
        assert (len(bx.ids(0)), len(bx.ids(1))) == (1, 1)
        assert bx.faces_of("loop") == ("0", "0")
        assert characteristic_map(bx, "loop").assign["01"] == "loop"

    def test_no_cells(self):
        x = standard_simplex(1)
        st = Stratum(x, [])
        bx = body(st)
        inc = inclusion_map(st.boundary, bx)
        assert bx == x and inc == identity_map(x)

    def test_two_zero_cells_on_empty(self):
        st = Stratum(EMPTY, [
            Cell("a", 0, SimplicialMap(EMPTY, EMPTY, {})),
            Cell("b", 0, SimplicialMap(EMPTY, EMPTY, {}))])
        bx = body(st)
        assert sorted(bx.ids(0)) == ["a", "b"]

    def test_matches_generic_pushout_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            st = gen.rand_stratum(rng)
            bx = body(st)
            inc = inclusion_map(st.boundary, bx)
            p, _, pb = generic_body_oracle(st)
            assert iso_over(bx, p, inc, pb) is not None
            # each glued cell's characteristic map extends its attach
            for c in st.cells:
                want = dict(c.attach.assign)
                want[top_simplex_id(c.dim)] = c.id
                assert characteristic_map(bx, c.id).assign == want

    def test_cell_validation(self):
        pt = standard_simplex(0)
        with pytest.raises(DeltaError):
            # attach domain must be the canonical boundary complex
            Cell("c", 1, SimplicialMap(pt, pt, {"0": "0"}))

    def test_boundary_id_collision_rejected(self):
        pt = standard_simplex(0)
        st = Stratum(pt, [Cell("0", 0,
                               SimplicialMap(EMPTY, pt, {}))])
        with pytest.raises(DeltaError):
            body(st)

    def test_duplicate_ids_rejected_without_validation(self):
        pt = standard_simplex(0)
        c = Cell("c", 0, SimplicialMap(EMPTY, pt, {}))
        same_id = Cell("c", 1, SimplicialMap(boundary_complex(1), pt,
                                             {"0": "0", "1": "0"}))
        with pytest.raises(StrataError, match="duplicate"):
            Stratum(pt, [c, same_id], validate=False)

    def test_glued_once_per_stratum(self):
        st = gen.rand_stratum(random.Random(5))
        first = body(st)
        assert body(st) is first


class TestMorphisms:
    def test_identity_square(self):
        st = loop_stratum()
        sq = u_of_strata_morphism(identity_strata_morphism(st))
        assert sq.top == identity_map(st.boundary)
        assert sq.bottom == identity_map(body(st))

    def test_collapsing_two_cells(self):
        pt = standard_simplex(0)
        a = SimplicialMap(boundary_complex(1), pt, {"0": "0", "1": "0"})
        two = Stratum(pt, [Cell("l1", 1, a), Cell("l2", 1, a)])
        one = Stratum(pt, [Cell("l", 1, a)])
        m = StrataMorphism(two, one, identity_map(pt),
                           {"l1": "l", "l2": "l"})
        sq = u_of_strata_morphism(m)
        assert sq.bottom.assign["l1"] == sq.bottom.assign["l2"] == "l"
        assert is_pullback(sq)

    def test_validation(self):
        pt = standard_simplex(0)
        a = SimplicialMap(boundary_complex(1), pt, {"0": "0", "1": "0"})
        st = Stratum(pt, [Cell("l", 1, a)])
        z = Stratum(pt, [Cell("v", 0, SimplicialMap(EMPTY, pt, {}))])
        with pytest.raises(DeltaError):
            StrataMorphism(st, z, identity_map(pt), {"l": "v"})  # dim

    def test_validation_through_the_body_map(self):
        b1 = boundary_complex(1)
        swap = SimplicialMap(b1, b1, {"0": "1", "1": "0"})
        st = Stratum(b1, [Cell("e", 1, identity_map(b1)), Cell("r", 1, swap)])
        m = StrataMorphism(st, st, swap, {"e": "r", "r": "e"})
        assert m.body_map.is_bijective()
        for p in ({"e": "r", "r": "e"},  # not commuting with faces
                  {"e": "0", "r": "r"}):  # to a boundary simplex
            with pytest.raises(StrataError):
                StrataMorphism(st, st, identity_map(b1), p)

    def test_pullback_lemma(self):
        rng = random.Random(37)
        for _ in range(40):
            m = gen.rand_strata_morphism(rng)
            assert is_pullback(u_of_strata_morphism(m))

    def test_functoriality_of_u(self):
        rng = random.Random(41)
        for _ in range(15):
            st = gen.rand_stratum(rng)
            m1 = pushforward_morphism(st, gen.rand_map_from(rng, st.boundary))
            m2 = pushforward_morphism(
                m1.cod, gen.rand_map_from(rng, m1.cod.boundary))
            m21 = compose_strata_morphisms(m2, m1)
            sq = u_of_strata_morphism(m21)
            sq1 = u_of_strata_morphism(m1)
            sq2 = u_of_strata_morphism(m2)
            assert sq.top == compose(sq2.top, sq1.top)
            assert sq.bottom == compose(sq2.bottom, sq1.bottom)

    def test_conservativity_instance(self):
        rng = random.Random(43)
        for _ in range(20):
            st = gen.rand_stratum(rng)
            m = pushforward_morphism(st, gen.rand_map_from(rng, st.boundary))
            sq = u_of_strata_morphism(m)
            if sq.top.is_bijective() and sq.bottom.is_bijective():
                assert m.f.is_bijective()
                assert sorted(m.p.values()) == \
                    sorted(c.id for c in m.cod.cells)


class TestPushforward:
    def test_identity(self):
        st = loop_stratum()
        out = pushforward_stratum(st, identity_map(st.boundary))
        assert out == st

    def test_loop_example(self):
        b1 = boundary_complex(1)
        st = Stratum(b1, [Cell("e", 1, identity_map(b1))])
        g = SimplicialMap(b1, standard_simplex(0), {"0": "0", "1": "0"})
        out = pushforward_stratum(st, g)
        bx = body(out)
        assert (len(bx.ids(0)), len(bx.ids(1))) == (1, 1)

    def test_body_commutes_with_pushforward(self):
        rng = random.Random(47)
        for _ in range(15):
            st = gen.rand_stratum(rng)
            g = gen.rand_map_from(rng, st.boundary)
            bx = body(st)
            inc = inclusion_map(st.boundary, bx)
            p, pbx, pz = pushout(inc, g)
            out_body = body(pushforward_stratum(st, g))
            assert iso_over(out_body, p, compose(pz, g), compose(pbx, inc)) \
                is not None

    def test_renames_a_cell_whose_id_the_codomain_holds(self):
        b1 = boundary_complex(1)
        st = Stratum(b1, [Cell("e", 1, identity_map(b1))])
        y = DeltaComplex({0: ["0", "1", "e"]})
        g = inclusion_map(b1, y)
        m = pushforward_morphism(st, g)
        _, cm = pushforward_complex(CellComplex(b1, [st]), g)
        assert m.p == cm.p == {"e": "e'"}
        assert [c.id for c in pushforward_stratum(st, g).cells] == ["e'"]
        assert body(m.cod).faces_of("e'") == ("1", "0")
        sq = u_of_strata_morphism(m)
        assert compose(sq.bottom, sq.left) == compose(sq.right, sq.top)


class TestColimits:
    def test_coproduct_of_single_cell_strata(self):
        pt = standard_simplex(0)
        s1 = Stratum(pt, [Cell("v", 0, SimplicialMap(EMPTY, pt, {}))])
        s2 = loop_stratum()
        out, legs = strata_colimit([s1, s2], [])
        assert len(out.cells) == 2
        assert len(out.boundary.ids(0)) == 2

    def test_coequaliser_of_identity(self):
        st = loop_stratum()
        i = identity_strata_morphism(st)
        out, legs = strata_colimit([st, st], [(0, 1, i), (0, 1, i)])
        assert len(out.cells) == len(st.cells)
        assert len(out.boundary.ids(0)) == len(st.boundary.ids(0))

    def test_merging_cells(self):
        pt = standard_simplex(0)
        a = SimplicialMap(boundary_complex(1), pt, {"0": "0", "1": "0"})
        two = Stratum(pt, [Cell("l1", 1, a), Cell("l2", 1, a)])
        one = Stratum(pt, [Cell("l", 1, a)])
        m1 = StrataMorphism(two, one, identity_map(pt),
                            {"l1": "l", "l2": "l"})
        m2 = StrataMorphism(two, one, identity_map(pt),
                            {"l1": "l", "l2": "l"})
        out, _ = strata_colimit([two, one], [(0, 1, m1), (0, 1, m2)])
        assert len(out.cells) == 1

    def test_u_preserves_colimits(self):
        from relcell.delta import colimit as delta_colimit
        rng = random.Random(53)
        for _ in range(15):
            s0 = gen.rand_stratum(rng, prefix="s")
            m1 = pushforward_morphism(s0, gen.rand_map_from(rng, s0.boundary))
            m2 = pushforward_morphism(s0, gen.rand_map_from(rng, s0.boundary))
            out, legs = strata_colimit(
                [s0, m1.cod, m2.cod], [(0, 1, m1), (0, 2, m2)])
            bodies = [body(s) for s in (s0, m1.cod, m2.cod)]
            arrows = [(0, 1, u_of_strata_morphism(m1).bottom),
                      (0, 2, u_of_strata_morphism(m2).bottom)]
            expected, exp_legs = delta_colimit(bodies, arrows)
            got = body(out)
            assert iso_over(got, expected,
                            u_of_strata_morphism(legs[0]).bottom,
                            exp_legs[0]) is not None


class TestEqualiser:
    def test_equaliser_of_identical_pair(self):
        rng = random.Random(59)
        st = gen.rand_stratum(rng)
        m = pushforward_morphism(st, gen.rand_map_from(rng, st.boundary))
        e, inc = strata_equaliser(m, m)
        assert len(e.cells) == len(st.cells)
        assert e.boundary == st.boundary

    def test_equaliser_drops_disagreeing_cells(self):
        pt = standard_simplex(0)
        a = SimplicialMap(boundary_complex(1), pt, {"0": "0", "1": "0"})
        two = Stratum(pt, [Cell("l1", 1, a), Cell("l2", 1, a)])
        swap = StrataMorphism(two, two, identity_map(pt),
                              {"l1": "l2", "l2": "l1"})
        e, _ = strata_equaliser(identity_strata_morphism(two), swap)
        assert len(e.cells) == 0
        assert e.boundary == pt

    def test_u_preserves_equaliser(self):
        from relcell.delta import equaliser as delta_equaliser
        pt = standard_simplex(0)
        a = SimplicialMap(boundary_complex(1), pt, {"0": "0", "1": "0"})
        two = Stratum(pt, [Cell("l1", 1, a), Cell("l2", 1, a)])
        swap = StrataMorphism(two, two, identity_map(pt),
                              {"l1": "l2", "l2": "l1"})
        ident = identity_strata_morphism(two)
        e, _ = strata_equaliser(ident, swap)
        eb, _ = delta_equaliser(u_of_strata_morphism(ident).bottom,
                                u_of_strata_morphism(swap).bottom)
        assert body(e) == eb
