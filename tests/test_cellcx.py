"""Cell complexes: normal form, composition, morphisms, (co)limits."""

import random

import pytest

from relcell import (
    CellComplex,
    CellComplexError,
    CellComplexMorphism,
    DeltaComplex,
    DeltaError,
    EMPTY,
    SimplicialMap,
    Stratum,
    assemble,
    boundary_complex,
    cellcx_colimit,
    cellcx_coproduct,
    cellcx_equaliser,
    colimit,
    compose,
    compose_complexes,
    compose_morphisms,
    complex_of,
    enumerate_homs,
    equaliser,
    free_complex,
    generator_complex,
    horizontal_compose,
    identity_map,
    identity_morphism,
    inclusion_map,
    is_isomorphism,
    is_pullback,
    pushforward_complex,
    pushout,
    standard_simplex,
    transpose,
    trivial_complex,
    u_of_complex,
    u_of_morphism,
    unit,
)
from relcell import cellcx, gen
from conftest import (checked_complex, mec_partition_composite, morphism,
                      normal_form, rand_cell_complex, rand_complex_morphism,
                      rand_images, rand_transpose_square, shuffled_strata)


def point_cell_complex():
    """One 0-cell glued on the empty complex."""
    st = Stratum(EMPTY, [("v", 0, ())])
    return CellComplex(EMPTY, [st])


def loop_on_new_vertex():
    """Height-2: a 0-cell, then a 1-cell with both endpoints on it."""
    a = point_cell_complex()
    st = Stratum(a.body, [("e", 1, ("v", "v"))])
    return compose_complexes(a, CellComplex(a.body, [st]))


def is_isomorphism_by_parts(m):
    """The oracle for ``is_isomorphism``: the base map is bijective, and the
    cells go bijectively onto the codomain's cells."""
    return m.f0.is_bijective() and \
        sorted(m.p.values()) == sorted(m.cod.cell_ids)


class TestBasics:
    def test_height_examples(self):
        assert trivial_complex(standard_simplex(1)).height == 0
        assert point_cell_complex().height == 1
        assert loop_on_new_vertex().height == 2

    def test_u_of_complex(self):
        x = standard_simplex(1)
        assert u_of_complex(trivial_complex(x)) == identity_map(x)
        c = point_cell_complex()
        assert u_of_complex(c).dom == EMPTY
        assert len(u_of_complex(c).cod.ids(0)) == 1

    def test_u_of_complex_is_the_checked_inclusion(self):
        # the underlying map is owned, not checked: it must be the
        # inclusion that ``inclusion_map`` checks, on drawn complexes, on
        # pushforward, colimit and equaliser outputs, and on free ones
        rng = random.Random(2036)
        complexes = []
        for _ in range(15):
            c = rand_cell_complex(rng, max_cells=4)
            _, m1 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            _, m2 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            complexes += [
                c, m1.cod, cellcx_equaliser(m1, m1)[0],
                cellcx_colimit([c, m1.cod, m2.cod],
                               [(0, 1, m1), (0, 2, m2)])[0],
                free_complex(gen.rand_map(rng, max_dim=2)).kf]
        # a proper equaliser: the swap of two edges agrees on the base only
        c = complex_of(standard_simplex(0), DeltaComplex(
            {0: ["0", "a", "b"], 1: ["e", "r"]},
            {"e": ("b", "a"), "r": ("a", "b")}))
        swap = morphism(c, c, identity_map(c.boundary),
                        {"a": "b", "b": "a", "e": "r", "r": "e"})
        e, _ = cellcx_equaliser(swap, identity_morphism(c))
        assert e.body == c.boundary
        for c in complexes + [e]:
            assert u_of_complex(c) == inclusion_map(c.boundary, c.body)

    def test_owned_values_pass_the_checks_they_skip(self, fz):
        # what relcell builds through ``_owning`` must be what the checked
        # constructors accept: on drawn inputs, each owned complex is
        # rebuilt through ``Stratum`` and ``CellComplex``, and each owned
        # morphism through ``CellComplexMorphism``
        rng = random.Random(2037)
        complexes = [trivial_complex(EMPTY),
                     trivial_complex(standard_simplex(2))]
        complexes += [generator_complex(k) for k in range(4)]
        morphisms = []
        for _ in range(12):
            c = rand_cell_complex(rng, max_cells=4)
            assert checked_complex(c) == c  # as ``assemble`` built it
            _, m1 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            _, m2 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            colim, legs = cellcx_colimit([c, m1.cod, m2.cod],
                                         [(0, 1, m1), (0, 2, m2)])
            e, incl = cellcx_equaliser(compose_morphisms(legs[1], m1),
                                       compose_morphisms(legs[2], m2))
            f, g0, h = rand_transpose_square(rng, c)
            kf = fz.k(gen.rand_map_from(rng, c.body)).kf
            stacked = compose_complexes(c, kf)
            complexes += [m1.cod, colim, e, kf, stacked]
            morphisms += [m1, m2, *legs, incl, unit(c, fz),
                          transpose(c, g0, h, fz.k(f)),
                          identity_morphism(stacked),
                          compose_morphisms(legs[1], m1)]
        # a proper equaliser: the swap of two edges agrees on the base only
        c = complex_of(standard_simplex(0), DeltaComplex(
            {0: ["0", "a", "b"], 1: ["e", "r"]},
            {"e": ("b", "a"), "r": ("a", "b")}))
        swap = morphism(c, c, identity_map(c.boundary),
                        {"a": "b", "b": "a", "e": "r", "r": "e"})
        e, incl = cellcx_equaliser(swap, identity_morphism(c))
        complexes.append(e)
        morphisms.append(incl)
        for c in complexes:
            assert checked_complex(c) == c
        for m in morphisms:
            CellComplexMorphism(m.dom, m.cod, m.body_map)
        # ``delta.equaliser``'s inclusion is the checked one
        for _ in range(12):
            f = gen.rand_map_from(rng, gen.rand_complex(rng))
            for g in enumerate_homs(f.dom, f.cod, limit=4):
                e, incl = equaliser(f, g)
                assert incl == inclusion_map(e, f.dom)

    def test_generator_complexes(self):
        for k in range(3):
            c = generator_complex(k)
            u = u_of_complex(c)
            assert u.dom == boundary_complex(k)
            assert c.height == 1 and len(list(c.all_cells())) == 1
            assert u.cod.max_dim == k
            # body is a relabeled standard simplex
            assert [len(u.cod.ids(m)) for m in range(k + 1)] == \
                [len(standard_simplex(k).ids(m)) for m in range(k + 1)]

    def test_properness_enforced(self):
        a = point_cell_complex()
        # a 0-cell at stage 1 with empty attach is improper
        st2 = Stratum(a.body, [("w", 0, ())])
        with pytest.raises(CellComplexError):
            CellComplex(EMPTY, [a.strata[0], st2])

    def test_empty_stratum_rejected(self):
        x = standard_simplex(0)
        with pytest.raises(CellComplexError):
            CellComplex(x, [Stratum(x, [])])

    def test_disconnected_stratum_rejected(self):
        st = Stratum(standard_simplex(1), [("v", 0, ())])
        with pytest.raises(CellComplexError, match="stratum 0 is not "
                           "connected to the previous body"):
            CellComplex(standard_simplex(0), [st])


class TestNormalForm:
    def test_proper_input_unchanged(self):
        c = loop_on_new_vertex()
        assert normal_form(c.boundary, c.strata) == c

    def test_misplaced_zero_cell_moved_down(self):
        a = point_cell_complex()
        st2 = Stratum._owning(a.body, [("w", 0, ())])
        c = normal_form(EMPTY, [a.strata[0], st2])
        assert c.height == 1
        assert {cid for cid, _, _ in c.strata[0].cells} == {"v", "w"}

    def test_idempotent_and_u_invariant(self):
        rng = random.Random(61)
        for _ in range(25):
            c = rand_cell_complex(rng, max_cells=5)
            sh = shuffled_strata(rng, c)
            n1 = normal_form(c.boundary, sh)
            assert normal_form(n1.boundary, n1.strata) == n1
            assert u_of_complex(n1) == u_of_complex(c)
            assert n1 == c  # same cells, same minimal stages

    def test_unplaceable_cells_rejected(self):
        with pytest.raises(CellComplexError):
            assemble(EMPTY, [("e", 1, ("ghost", "ghost"))])


class TestComposition:
    def test_identity_laws(self):
        c = loop_on_new_vertex()
        assert compose_complexes(c, trivial_complex(c.body)) == c
        assert compose_complexes(trivial_complex(c.boundary), c) == c

    def test_cell_stays_at_later_stage(self):
        c = loop_on_new_vertex()
        assert c.height == 2
        assert c.stage_of_cell("v") == 0
        assert c.stage_of_cell("e") == 1

    def test_matches_mec_partition_oracle(self):
        rng = random.Random(67)
        for _ in range(25):
            a = rand_cell_complex(rng, max_cells=4, prefix="a")
            b = rand_cell_complex(rng, max_cells=0)
            b = build_on(rng, a.body, 3, "b")
            assert compose_complexes(a, b) == mec_partition_composite(a, b)

    def test_associativity_on_the_nose(self):
        rng = random.Random(71)
        for _ in range(15):
            a = rand_cell_complex(rng, max_cells=3, prefix="a")
            b = build_on(rng, a.body, 2, "b")
            c = build_on(rng, b.body, 2, "c")
            left = compose_complexes(compose_complexes(a, b), c)
            right = compose_complexes(a, compose_complexes(b, c))
            assert left == right

    def test_mismatch_rejected(self):
        a = point_cell_complex()
        with pytest.raises(CellComplexError):
            compose_complexes(a, point_cell_complex())

    def test_stacking(self):
        # gluing two independent cells in either order or jointly agrees
        rng = random.Random(73)
        for _ in range(10):
            base = gen.rand_complex(rng, max_dim=1)
            k1, a1 = rand_images(rng, base, 1)
            k2, a2 = rand_images(rng, base, 1)
            c1, c2 = ("s", k1, a1), ("t", k2, a2)
            joint = assemble(base, [c1, c2])
            seq1 = assemble(base, [c1])
            seq1 = compose_complexes(seq1, assemble(seq1.body, [c2]))
            seq2 = assemble(base, [c2])
            seq2 = compose_complexes(seq2, assemble(seq2.body, [c1]))
            assert joint == seq1 == seq2


def build_on(rng, base, max_cells, prefix):
    """A random complex over a prescribed base."""
    from relcell.strata import body as st_body
    strata = []
    current = base
    for i in range(rng.randint(0, max_cells)):
        k, images = rand_images(rng, current, 2)
        st = Stratum(current, [(f"{prefix}{i}", k, images)])
        strata.append(st)
        current = st_body(st)
    return normal_form(base, strata)


class TestMorphisms:
    def test_identity_and_iso(self):
        c = loop_on_new_vertex()
        i = identity_morphism(c)
        assert is_isomorphism(i)
        assert u_of_morphism(i).bottom == identity_map(c.body)

    def test_inclusion_not_iso(self):
        a = point_cell_complex()
        c = loop_on_new_vertex()
        m = morphism(a, c, SimplicialMap(EMPTY, EMPTY, {}), {"v": "v"})
        assert not is_isomorphism(m)

    def test_pullback_lemma(self):
        rng = random.Random(79)
        for _ in range(40):
            m = rand_complex_morphism(rng)
            assert is_pullback(u_of_morphism(m))

    def test_compose_morphisms(self):
        rng = random.Random(83)
        for _ in range(10):
            c = rand_cell_complex(rng, max_cells=4)
            _, m1 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            _, m2 = pushforward_complex(
                m1.cod, gen.rand_map_from(rng, m1.cod.boundary))
            m = compose_morphisms(m2, m1)
            assert u_of_morphism(m).top == \
                compose(u_of_morphism(m2).top, u_of_morphism(m1).top)
            assert u_of_morphism(m).bottom == \
                compose(u_of_morphism(m2).bottom, u_of_morphism(m1).bottom)

    def test_validation_through_the_body_map(self):
        # over a point: vertices a, b at stage 0, edges e: a -> b and
        # r: b -> a at stage 1
        c = complex_of(standard_simplex(0), DeltaComplex(
            {0: ["0", "a", "b"], 1: ["e", "r"]},
            {"e": ("b", "a"), "r": ("a", "b")}))
        assert [[cid for cid, _, _ in st.cells] for st in c.strata] == \
            [["a", "b"], ["e", "r"]]
        f0 = identity_map(c.boundary)
        swap = {"a": "b", "b": "a", "e": "r", "r": "e"}
        assert morphism(c, c, f0, swap).body_map.is_bijective()
        # each is no map of bodies, so the body map's own check rejects it
        for p, message in [
                ({"a": "a", "b": "b", "e": "r", "r": "e"},  # not commuting
                 "face commutation fails at 'e'"),
                ({"a": "0", "b": "b", "e": "e", "r": "r"},  # to the base
                 "face commutation fails at 'e'"),
                ({"a": "e", "b": "b", "e": "e", "r": "r"},  # across stages
                 "'a' (0-simplex) maps to bad id 'e'")]:
            with pytest.raises(DeltaError) as info:
                morphism(c, c, f0, p)
            assert type(info.value) is DeltaError
            assert str(info.value) == message

    def test_stage_preservation_required(self):
        c = loop_on_new_vertex()
        a = point_cell_complex()
        with pytest.raises(DeltaError):
            # cannot send the stage-1 edge cell to a stage-0 cell
            morphism(c, c, identity_map(EMPTY), {"v": "v", "e": "v"})


    def test_validation_checks_in_order(self):
        pt = standard_simplex(0)
        bare = trivial_complex(pt)
        v = CellComplex(pt, [Stratum(pt, [("v", 0, ())])])
        loop = CellComplex(pt, [Stratum(pt, [("v", 0, ()),
                                             ("e", 1, ("0", "0"))])])
        # improper: the loop attaches inside stage 0 but is glued at 1
        late = CellComplex._owning(
            pt, [Stratum(pt, [("v", 0, ())]),
                 Stratum(v.body, [("e", 1, ("0", "0"))])])
        cases = [
            (bare, v, identity_map(pt), "body map endpoints"),
            (bare, v, SimplicialMap(pt, v.body, {"0": "v"}),
             "base map endpoints do not match"),
            (v, v, SimplicialMap(v.body, v.body, {"0": "0", "v": "0"}),
             "unknown target cell '0'"),
            (late, loop, identity_map(loop.body),
             "cell 'e' at stage 1 maps across stages"),
        ]
        for dom, cod, m, message in cases:
            with pytest.raises(CellComplexError, match=message):
                CellComplexMorphism(dom, cod, m)

    def test_constructions_pass_the_delta_legs(self, monkeypatch):
        # the body map of each derived morphism is the very leg that the
        # delta construction on bodies returned; f0 and p restrict it
        returned = []  # every map the delta constructions return
        for name in ("pushout", "colimit", "equaliser"):
            def record(*args, _real=getattr(cellcx, name)):
                out = _real(*args)
                for x in out[1:]:
                    returned.extend(x if isinstance(x, list) else [x])
                return out
            monkeypatch.setattr(cellcx, name, record)

        def check(m):
            assert any(m.body_map is leg for leg in returned)
            a = m.body_map.assign
            base = m.dom.boundary
            assert m.f0 == SimplicialMap(base, m.cod.boundary,
                                         {s: a[s] for s in base.id_set})
            assert m.p == {cid: a[cid] for cid in m.dom.cell_ids}

        rng = random.Random(151)
        for _ in range(15):
            c = rand_cell_complex(rng, max_cells=4)
            _, m1 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            _, m2 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            _, legs = cellcx_colimit([c, m1.cod, m2.cod],
                                     [(0, 1, m1), (0, 2, m2)])
            two, (j0, j1) = cellcx_coproduct([c, c])
            _, q = pushforward_complex(two,
                                       gen.rand_map_from(rng, two.boundary))
            _, incl = cellcx_equaliser(compose_morphisms(q, j0),
                                       compose_morphisms(q, j1))
            for m in (m1, m2, *legs, j0, j1, q, incl):
                check(m)

    def test_is_isomorphism_matches_the_definition_by_parts(self):
        rng = random.Random(157)
        verdicts = []
        for _ in range(30):
            c = rand_cell_complex(rng, max_cells=4)
            lower = CellComplex(c.boundary,
                                c.strata[:rng.randint(0, c.height)])
            _, (j0, _) = cellcx_coproduct([c, c])
            for m in (rand_complex_morphism(rng), identity_morphism(c),
                      CellComplexMorphism(lower, c,
                                          inclusion_map(lower.body, c.body)),
                      j0):
                assert is_isomorphism(m) == is_isomorphism_by_parts(m)
                verdicts.append(is_isomorphism(m))
        assert 0 < sum(verdicts) < len(verdicts)


class TestHorizontalComposition:
    def test_identities(self):
        a = point_cell_complex()
        b = build_complex_on_body(a)
        psi = identity_morphism(b)
        phi = identity_morphism(a)
        hc = horizontal_compose(psi, phi)
        assert hc.dom == compose_complexes(a, b)
        assert is_isomorphism(hc)

    def test_u_image_formula(self):
        rng = random.Random(89)
        for _ in range(10):
            a = rand_cell_complex(rng, max_cells=3, prefix="a")
            b = build_on(rng, a.body, 2, "b")
            g = gen.rand_map_from(rng, a.boundary)
            _, phi = pushforward_complex(a, g)
            bg = u_of_morphism(phi).bottom
            _, psi = pushforward_complex(b, bg)
            hc = horizontal_compose(psi, phi)
            sq = u_of_morphism(hc)
            assert sq.top == u_of_morphism(phi).top
            assert sq.bottom == u_of_morphism(psi).bottom


def build_complex_on_body(a):
    return CellComplex(a.body, [Stratum(a.body, [("e", 1, ("v", "v"))])])


class TestPushforward:
    def test_identity(self):
        c = loop_on_new_vertex()
        out, m = pushforward_complex(c, identity_map(c.boundary))
        out._validate()
        assert out == c and is_isomorphism(m)

    def test_renames_a_cell_whose_id_the_codomain_holds(self):
        c = generator_complex(1)
        y = DeltaComplex({0: ["0", "1", "cell1"]})
        out, m = pushforward_complex(c, inclusion_map(c.boundary, y))
        out._validate()
        assert out.boundary == y and out.cell_ids == {"cell1'"}
        assert m.p == {"cell1": "cell1'"}
        assert out.cell("cell1'")[1:] == c.cell("cell1")[1:]

    def test_complex_of_its_inclusion(self):
        rng = random.Random(107)
        for _ in range(15):
            c = rand_cell_complex(rng)
            assert complex_of(c.boundary, c.body) == c

    def test_loop_example(self):
        b1 = boundary_complex(1)
        c = CellComplex(b1, [Stratum(b1, [("e", 1, ("0", "1"))])])
        g = SimplicialMap(b1, standard_simplex(0), {"0": "0", "1": "0"})
        out, _ = pushforward_complex(c, g)
        out._validate()
        assert (len(out.body.ids(0)), len(out.body.ids(1))) == (1, 1)

    def test_underlying_map_is_pushout(self):
        rng = random.Random(97)
        for _ in range(15):
            c = rand_cell_complex(rng, max_cells=4)
            g = gen.rand_map_from(rng, c.boundary)
            out, m = pushforward_complex(c, g)
            out._validate()
            p, px, py = pushout(u_of_complex(c), g)
            med = None
            for h in [SimplicialMap._owning(p, out.body, {
                    **{px.assign[s]: u_of_morphism(m).bottom.assign[s]
                       for s in c.body.id_set},
                    **{py.assign[s]: u_of_complex(out).assign[s]
                       for s in g.cod.id_set}})]:
                med = h
            assert med.is_bijective()


class TestColimitsAndEqualisers:
    def test_coproduct_of_generators(self):
        c0 = generator_complex(0)
        c1 = generator_complex(1)
        out, legs = cellcx_coproduct([c0, c1])
        out._validate()
        assert out.height == 1
        assert len(list(out.all_cells())) == 2

    def test_equaliser_of_self(self):
        rng = random.Random(101)
        c = rand_cell_complex(rng, max_cells=3)
        _, m = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
        e, inc = cellcx_equaliser(m, m)
        e._validate()
        assert e == c

    def test_equaliser_drops_swapped_cells(self):
        pt = standard_simplex(0)
        a = ("0", "0")
        two = CellComplex(pt, [Stratum(pt, [("l1", 1, a),
                                            ("l2", 1, a)])])
        swap = morphism(two, two, identity_map(pt), {"l1": "l2", "l2": "l1"})
        e, _ = cellcx_equaliser(identity_morphism(two), swap)
        e._validate()
        assert list(e.all_cells()) == []
        assert e.boundary == pt

    def test_colimit_u_preservation_and_properness(self):
        from relcell.delta import colimit as delta_colimit
        rng = random.Random(103)
        for _ in range(15):
            c = rand_cell_complex(rng, max_cells=3)
            _, m1 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            _, m2 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            out, legs = cellcx_colimit([c, m1.cod, m2.cod],
                                       [(0, 1, m1), (0, 2, m2)])
            CellComplex(out.boundary, out.strata)  # re-validates properness
            bodies = [x.body for x in (c, m1.cod, m2.cod)]
            arrows = [(0, 1, u_of_morphism(m1).bottom),
                      (0, 2, u_of_morphism(m2).bottom)]
            expected, exp_legs = delta_colimit(bodies, arrows)
            got_leg = u_of_morphism(legs[0]).bottom
            iso_assign = {}
            consistent = True
            for s in bodies[0].id_set:
                key = exp_legs[0].assign[s]
                val = got_leg.assign[s]
                if iso_assign.setdefault(key, val) != val:
                    consistent = False
            assert consistent
            assert len(set(iso_assign.values())) == len(iso_assign)

    def test_base_is_the_construction_on_the_bases(self):
        # the base read off the colimit of the bodies is the colimit of the
        # base maps, and the base the body-map equaliser keeps is the
        # equaliser of the base maps: same ids, same faces
        rng = random.Random(163)
        merged = dropped = 0
        for _ in range(20):
            c = rand_cell_complex(rng, max_cells=4)
            _, m1 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            _, m2 = pushforward_complex(c, gen.rand_map_from(rng, c.boundary))
            two, (j0, j1) = cellcx_coproduct([c, c])
            _, q = pushforward_complex(two,
                                       gen.rand_map_from(rng, two.boundary))
            q0, q1 = compose_morphisms(q, j0), compose_morphisms(q, j1)
            for objs, arrows in (
                    ([c, m1.cod, m2.cod], [(0, 1, m1), (0, 2, m2)]),
                    ([c, c], []),
                    ([c, q.cod], [(0, 1, q0), (0, 1, q1)])):
                out, _ = cellcx_colimit(objs, arrows)
                out._validate()
                base, _ = colimit([o.boundary for o in objs],
                                  [(a, b, m.f0) for a, b, m in arrows])
                assert out.boundary == base
                merged += base.n_simplices < sum(o.boundary.n_simplices
                                                 for o in objs)
            for pair in ((m1, m1), (q0, q1)):
                e, _ = cellcx_equaliser(*pair)
                e._validate()
                assert e.boundary == equaliser(pair[0].f0, pair[1].f0)[0]
                dropped += e.boundary != c.boundary
        assert merged and dropped


class TestImageProperty:
    def test_underlying_map_is_composite_of_generator_pushouts(self):
        # each stage inclusion is a pushout of a coproduct of generators
        # (covered structurally by the strata body oracle); here we check
        # that composing the stage inclusions gives the underlying map
        rng = random.Random(109)
        for _ in range(10):
            c = rand_cell_complex(rng, max_cells=4)
            u = identity_map(c.boundary)
            acc = c.boundary
            for n in range(c.height):
                step = inclusion_map(acc, c.filtration[n + 1])
                u = compose(step, u)
                acc = c.filtration[n + 1]
            assert u == u_of_complex(c)
