"""Single gluing layers: bodies, and strata as the cell complexes of
height <= 1 (``cx``), whose morphisms, pushforwards, colimits and
equalisers are those of ``cellcx``."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from relcell import (
    CellComplexError,
    CellComplexMorphism,
    DeltaComplex,
    DeltaError,
    EMPTY,
    SimplicialMap,
    StrataError,
    Stratum,
    boundary_complex,
    boundary_restriction,
    body,
    cellcx_colimit,
    cellcx_coproduct,
    cellcx_equaliser,
    characteristic_map,
    compose,
    compose_morphisms,
    coproduct,
    enumerate_homs,
    identity_map,
    identity_morphism,
    inclusion_map,
    is_pullback,
    pushforward_complex,
    pushout,
    standard_simplex,
    top_simplex_id,
    u_of_morphism,
)
from relcell import Factorizer, gen
from relcell.cli import builtin_fixtures
from relcell.delta import _lift_kernel, boundary_keys, facet_ids
from relcell.soa import free_complex, k1_step
from conftest import (attach_map, chain_complex, cx, morphism,
                      rand_cell_complex, rand_stratum, stratum_of)


def loop_stratum():
    pt = standard_simplex(0)
    return Stratum(pt, [("loop", 1, ("0", "0"))])


def generic_body_oracle(st):
    """Independent oracle: the body as a genuine pushout of coproducts."""
    shapes = [standard_simplex(k) for _, k, _ in st.cells]
    bds = [boundary_complex(k) for _, k, _ in st.cells]
    total_bd, bd_legs = coproduct(bds)
    total_sh, sh_legs = coproduct(shapes)
    inc_assign = {}
    for leg_b, leg_s in zip(bd_legs, sh_legs):
        for s, t in leg_b.assign.items():
            inc_assign[t] = leg_s.assign[s]
    inc = SimplicialMap(total_bd, total_sh, inc_assign)
    att_assign = {}
    for (_, k, images), leg_b in zip(st.cells, bd_legs):
        for s, t in leg_b.assign.items():
            att_assign[t] = attach_map(k, images, st.boundary).assign[s]
    att = SimplicialMap(total_bd, st.boundary, att_assign)
    return pushout(inc, att)


def iso_over(x, y, fx, fy):
    """Find a bijective map x -> y commuting with the cocone legs."""
    for h in enumerate_homs(x, y, pre=(fx, fy)):
        if h.is_bijective():
            return h
    return None


def sample_strata():
    """Strata with cells of every shape 0..3: from ``rand_stratum``, which
    reads them off maps, and from free factorizations, which glue image tuples
    as the lift search yields them."""
    rng = random.Random(17)
    strata = [rand_stratum(rng) for _ in range(20)]
    for _ in range(6):
        strata += free_complex(gen.rand_map(rng, max_dim=3)).kf.strata
    assert {k for st in strata for _, k, _ in st.cells} == {0, 1, 2, 3}
    return strata


def rebuilt_body(st):
    """The body as built before it merged onto the boundary: every grade
    re-sorted and every dict re-copied through ``DeltaComplex``, which
    also validates it."""
    simp = {k: list(ids) for k, ids in st.boundary.simplices.items()}
    faces = dict(st.boundary.faces)
    for cid, k, images in st.cells:
        simp.setdefault(k, []).append(cid)
        if k:
            attach = attach_map(k, images, st.boundary)
            faces[cid] = tuple(attach.assign[s] for s in facet_ids(k))
    return DeltaComplex(simp, faces)


class TestImages:
    def test_image_tuple_and_attach_agree(self):
        """A cell's images, read in ``boundary_keys`` order, are the
        attach its glued simplex has in the body."""
        for st in sample_strata():
            bx = body(st)
            for cid, k, images in st.cells:
                keys = boundary_keys(k)
                assert keys == tuple(sorted(boundary_complex(k).id_set))
                assert attach_map(k, images, bx) == \
                    boundary_restriction(bx, cid)
            # and each attach is a map into the boundary
            assert Stratum(st.boundary, st.cells) == st

    def test_images_follow_the_kernel_order(self):
        """The lift search yields the post-constrained homs from the
        boundary, each as its images in ``boundary_keys`` order."""
        rng = random.Random(23)
        for _ in range(10):
            f = gen.rand_map(rng, max_dim=3)
            for k, t in f.cod.all_ids():
                homs = enumerate_homs(boundary_complex(k), f.dom, post=(
                    f, boundary_restriction(f.cod, t)))
                _, lifts = _lift_kernel(k)(f, (t,), None)
                assert sorted(attach_map(k, images, f.dom).key()
                              for images in lifts) == \
                    sorted(h.key() for h in homs)

    def test_one_search_over_many_targets(self):
        """The search over every k-simplex of a stage's codomain is the
        single-target searches concatenated, in target order, without
        properness filtering and with the ids the stage before glued."""
        rng = random.Random(29)
        maps = [gen.rand_map(rng, max_dim=3) for _ in range(10)]
        for f in maps + [identity_map(chain_complex(4))]:
            new, stage = None, 0
            while True:
                for k in range(f.cod.max_dim + 1):
                    search = _lift_kernel(k)
                    targets = f.cod.ids(k)
                    over, lifts = [], []
                    for t in targets:
                        one_over, one_lifts = search(f, (t,), new)
                        assert one_over == [t] * len(one_lifts)
                        over += one_over
                        lifts += one_lifts
                    assert search(f, targets, new) == (over, lifts)
                st, f = k1_step(f, new, stage)
                if not st.cells:
                    break
                new, stage = st._by_id, stage + 1

    def test_unequal_images_or_codomains_differ(self):
        pt = standard_simplex(0)
        two, _ = coproduct([pt, pt])
        loop = ("c", 1, ("0.0", "0.0"))
        edge = ("c", 1, ("0.0", "1.0"))
        assert loop != edge and loop != ("c", 2, ("0.0", "0.0"))
        # equal cells are equal tuples, with equal hashes
        assert loop == ("c", 1, ("0.0", "0.0"))
        assert hash(loop) == hash(("c", 1, ("0.0", "0.0")))
        assert Stratum(two, [loop]) != Stratum(two, [edge])
        # the codomain is the stratum's boundary
        assert Stratum(two, [loop]) != Stratum(
            two.subcomplex({"0.0"}), [loop])
        assert Stratum(two, [loop]) == Stratum(two, [loop])


def test_cells_are_untracked_tuples():
    """A cell is an exact tuple of an id, an int and a tuple of ids, so the
    cyclic collector stops tracking it, and the cells a ``Factorizer``
    keeps alive cost no collector time.  A tuple subclass, or any class
    instance, would stay tracked."""
    fz = Factorizer()
    results = [fz.k(gen.rand_map(random.Random(2032), max_dim=3))]
    f = dict(builtin_fixtures())["boundary-2"]
    results.append(fz.k(fz.k(f).ef))
    # a collection can reach a cell before its images tuple, which it then
    # untracks; the cell itself goes at the next one
    gc.collect()
    gc.collect()
    cells = [c for fr in results for st in fr.kf.strata for c in st.cells]
    assert len(cells) > 100
    for c in cells:
        assert type(c) is tuple and not gc.is_tracked(c), c


class TestStratumChecksAttach:
    """``Stratum`` checks each cell's images as a map from the boundary of
    the standard simplex of its shape into the stratum's boundary."""

    def test_too_few_or_too_many_images_rejected(self):
        pt = standard_simplex(0)
        for k, images in ((1, ("0",)), (1, ("0", "0", "0")), (1, ()),
                          (0, ("0",)), (2, ("0",) * 5), (2, ("0",) * 7)):
            with pytest.raises(StrataError, match="images for"):
                Stratum(pt, [("c", k, images)])
            # unchecked, the stratum takes it as it is
            Stratum(pt, [("c", k, images)], validate=False)

    def test_image_outside_or_of_wrong_dimension_rejected(self):
        d1 = standard_simplex(1)
        for images in (("0", "ghost"), ("01", "1"), ("0", "01")):
            with pytest.raises(DeltaError, match="maps to bad id"):
                Stratum(d1, [("c", 1, images)])
        with pytest.raises(DeltaError, match="maps to bad id"):
            Stratum(d1, [("c", 2, ("0", "01", "0", "1", "0", "0"))])

    def test_broken_face_commutation_rejected(self):
        # an edge e from a to b, and a loop l at a
        x = DeltaComplex({0: ["a", "b"], 1: ["e", "l"]},
                         {"e": ("b", "a"), "l": ("a", "a")})
        Stratum(x, [("c", 1, ("a", "b")),
                    ("d", 2, ("a", "l", "l", "a", "l", "a"))])
        for images in (("a", "e", "l", "a", "l", "a"),
                       ("a", "l", "l", "b", "l", "a")):
            with pytest.raises(DeltaError, match="face commutation"):
                Stratum(x, [("c", 2, images)])
            Stratum(x, [("c", 2, images)], validate=False)


def attach_oracle(k, images, boundary):
    """The attach check as it was: the cell's images as a validated map
    from the boundary of the standard k-simplex into ``boundary``."""
    SimplicialMap(boundary_complex(k), boundary,
                  zip(boundary_keys(k), images))


_STAGES = [chain_complex(3), standard_simplex(3),
           DeltaComplex({0: ["a", "b"], 1: ["e", "l"]},
                        {"e": ("b", "a"), "l": ("a", "a")})] + \
    [gen.rand_complex(random.Random(seed), max_dim=3) for seed in range(4)]
# up to 24 attaches of each shape into each stage, as image tuples
_ATTACHES = {(n, k): [tuple(h.assign[s] for s in boundary_keys(k))
                      for h in enumerate_homs(boundary_complex(k), x,
                                              limit=24)]
             for n, x in enumerate(_STAGES) for k in range(5)}


def _outcome(check):
    try:
        check()
    except DeltaError as err:
        return type(err), str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_attach_check_matches_the_map_oracle(data):
    """``Stratum`` accepts a cell's images exactly when they form a map
    into the boundary, and names the first bad position as the map's
    validation does, for shapes 0..4, with images drawn from the stage's
    ids of every dimension, an id outside it, and its attaches with up to
    two positions redrawn."""
    n = data.draw(st.integers(0, len(_STAGES) - 1), label="stage")
    k = data.draw(st.integers(0, 4), label="k")
    x, size = _STAGES[n], len(boundary_keys(k))
    ids = st.sampled_from(sorted(x.id_set) + ["ghost"])
    if _ATTACHES[n, k] and data.draw(st.booleans()):
        images = list(data.draw(st.sampled_from(_ATTACHES[n, k])))
        for _ in range(data.draw(st.integers(0, 2)) if size else 0):
            images[data.draw(st.integers(0, size - 1))] = data.draw(ids)
    else:
        images = data.draw(st.lists(ids, min_size=size, max_size=size))
    images = tuple(images)
    want = _outcome(lambda: attach_oracle(k, images, x))
    assert _outcome(lambda: Stratum(x, [("c", k, images)])) == want


def test_every_shape_has_an_accepted_attach():
    # the sample above reaches acceptance at every shape, not only rejection
    assert all(any(_ATTACHES[n, k] for n in range(len(_STAGES)))
               for k in range(5))


class TestBody:
    def test_merge_matches_the_rebuild(self):
        rng = random.Random(29)
        strata = [rand_stratum(rng, prefix) for prefix in
                  ("c", "0", "!", "z") for _ in range(10)]
        for _ in range(6):
            strata += free_complex(gen.rand_map(rng, max_dim=3)).kf.strata
        for _ in range(10):  # cell ids that sort between the base ids
            strata += rand_cell_complex(rng, prefix="0.1").strata
        for st in strata:
            got, want = body(st), rebuilt_body(st)
            assert got == want and got.key() == want.key()
            assert got._dim_of == want._dim_of
            for k, ids in got.simplices.items():
                assert type(ids) is tuple and list(ids) == sorted(ids)
            assert st.boundary.is_subcomplex_of(got)

    def test_cell_id_collision_is_a_strata_error(self):
        pt = standard_simplex(0)
        edge = ("0", "0")
        for st in (Stratum(pt, [("0", 0, ())]),
                   Stratum(pt, [("a", 1, edge), ("0", 1, edge)])):
            with pytest.raises(StrataError, match="'0' collides"):
                body(st)

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
        st = Stratum(EMPTY, [("a", 0, ()), ("b", 0, ())])
        bx = body(st)
        assert sorted(bx.ids(0)) == ["a", "b"]

    def test_matches_generic_pushout_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            st = rand_stratum(rng)
            bx = body(st)
            inc = inclusion_map(st.boundary, bx)
            p, _, pb = generic_body_oracle(st)
            assert iso_over(bx, p, inc, pb) is not None
            # each glued cell's characteristic map extends its attach
            for cid, k, images in st.cells:
                want = dict(zip(boundary_keys(k), images))
                want[top_simplex_id(k)] = cid
                assert characteristic_map(bx, cid).assign == want

    def test_cell_validation(self):
        pt = standard_simplex(0)
        with pytest.raises(DeltaError):
            # one image per simplex of the boundary of the 1-simplex
            Stratum(pt, [("c", 1, ("0",))])

    def test_boundary_id_collision_rejected(self):
        pt = standard_simplex(0)
        st = Stratum(pt, [("0", 0, ())])
        with pytest.raises(DeltaError):
            body(st)

    def test_duplicate_ids_rejected_without_validation(self):
        pt = standard_simplex(0)
        c = ("c", 0, ())
        same_id = ("c", 1, ("0", "0"))
        with pytest.raises(StrataError, match="duplicate"):
            Stratum(pt, [c, same_id], validate=False)

    def test_glued_once_per_stratum(self):
        st = rand_stratum(random.Random(5))
        first = body(st)
        assert body(st) is first


class TestMorphisms:
    def test_identity_square(self):
        st = loop_stratum()
        sq = u_of_morphism(identity_morphism(cx(st)))
        assert sq.top == identity_map(st.boundary)
        assert sq.bottom == identity_map(body(st))

    def test_collapsing_two_cells(self):
        pt = standard_simplex(0)
        a = ("0", "0")
        two = Stratum(pt, [("l1", 1, a), ("l2", 1, a)])
        one = Stratum(pt, [("l", 1, a)])
        m = morphism(cx(two), cx(one), identity_map(pt),
                     {"l1": "l", "l2": "l"})
        sq = u_of_morphism(m)
        assert sq.bottom.assign["l1"] == sq.bottom.assign["l2"] == "l"
        assert is_pullback(sq)

    def test_validation(self):
        pt = standard_simplex(0)
        a = ("0", "0")
        st = Stratum(pt, [("l", 1, a)])
        z = Stratum(pt, [("v", 0, ())])
        with pytest.raises(DeltaError):
            morphism(cx(st), cx(z), identity_map(pt), {"l": "v"})  # dim

    def test_validation_through_the_body_map(self):
        b1 = boundary_complex(1)
        swap = SimplicialMap(b1, b1, {"0": "1", "1": "0"})
        st = Stratum(b1, [("e", 1, ("0", "1")), ("r", 1, ("1", "0"))])
        m = morphism(cx(st), cx(st), swap, {"e": "r", "r": "e"})
        assert m.body_map.is_bijective()
        for p in ({"e": "r", "r": "e"},  # not commuting with faces
                  {"e": "0", "r": "r"}):  # to a boundary simplex
            with pytest.raises(CellComplexError):
                morphism(cx(st), cx(st), identity_map(b1), p)

    def test_pullback_lemma(self):
        rng = random.Random(37)
        for _ in range(40):
            st = rand_stratum(rng)
            _, m = pushforward_complex(cx(st),
                                       gen.rand_map_from(rng, st.boundary))
            assert is_pullback(u_of_morphism(m))

    def test_functoriality_of_u(self):
        rng = random.Random(41)
        for _ in range(15):
            st = rand_stratum(rng)
            _, m1 = pushforward_complex(cx(st),
                                        gen.rand_map_from(rng, st.boundary))
            _, m2 = pushforward_complex(
                m1.cod, gen.rand_map_from(rng, m1.cod.boundary))
            m21 = compose_morphisms(m2, m1)
            sq = u_of_morphism(m21)
            sq1 = u_of_morphism(m1)
            sq2 = u_of_morphism(m2)
            assert sq.top == compose(sq2.top, sq1.top)
            assert sq.bottom == compose(sq2.bottom, sq1.bottom)

    def test_conservativity_instance(self):
        rng = random.Random(43)
        for _ in range(20):
            st = rand_stratum(rng)
            _, m = pushforward_complex(cx(st),
                                       gen.rand_map_from(rng, st.boundary))
            sq = u_of_morphism(m)
            if sq.top.is_bijective() and sq.bottom.is_bijective():
                assert m.f0.is_bijective()
                assert sorted(m.p.values()) == \
                    sorted(cid for cid, _, _ in stratum_of(m.cod).cells)


class TestPushforward:
    def test_identity(self):
        st = loop_stratum()
        out, _ = pushforward_complex(cx(st), identity_map(st.boundary))
        out._validate()
        assert stratum_of(out) == st

    def test_body_commutes_with_pushforward(self):
        rng = random.Random(47)
        for _ in range(15):
            st = rand_stratum(rng)
            g = gen.rand_map_from(rng, st.boundary)
            bx = body(st)
            inc = inclusion_map(st.boundary, bx)
            p, pbx, pz = pushout(inc, g)
            out, _ = pushforward_complex(cx(st), g)
            out._validate()
            out_body = body(stratum_of(out))
            assert iso_over(out_body, p, compose(pz, g), compose(pbx, inc)) \
                is not None


class TestColimits:
    def test_coproduct_of_single_cell_strata(self):
        pt = standard_simplex(0)
        s1 = Stratum(pt, [("v", 0, ())])
        s2 = loop_stratum()
        out, legs = cellcx_coproduct([cx(s1), cx(s2)])
        out._validate()
        assert len(stratum_of(out).cells) == 2
        assert len(out.boundary.ids(0)) == 2

    def test_coequaliser_of_identity(self):
        st = loop_stratum()
        i = identity_morphism(cx(st))
        out, legs = cellcx_colimit([cx(st), cx(st)], [(0, 1, i), (0, 1, i)])
        out._validate()
        assert len(stratum_of(out).cells) == len(st.cells)
        assert len(out.boundary.ids(0)) == len(st.boundary.ids(0))

    def test_merging_cells(self):
        pt = standard_simplex(0)
        a = ("0", "0")
        two = cx(Stratum(pt, [("l1", 1, a), ("l2", 1, a)]))
        one = cx(Stratum(pt, [("l", 1, a)]))
        m1 = morphism(two, one, identity_map(pt), {"l1": "l", "l2": "l"})
        m2 = morphism(two, one, identity_map(pt), {"l1": "l", "l2": "l"})
        out, _ = cellcx_colimit([two, one], [(0, 1, m1), (0, 1, m2)])
        out._validate()
        assert len(stratum_of(out).cells) == 1

    def test_u_preserves_colimits(self):
        from relcell.delta import colimit as delta_colimit
        rng = random.Random(53)
        for _ in range(15):
            s0 = rand_stratum(rng, prefix="s")
            c = cx(s0)
            _, m1 = pushforward_complex(c, gen.rand_map_from(rng, s0.boundary))
            _, m2 = pushforward_complex(c, gen.rand_map_from(rng, s0.boundary))
            out, legs = cellcx_colimit(
                [c, m1.cod, m2.cod], [(0, 1, m1), (0, 2, m2)])
            out._validate()
            bodies = [x.body for x in (c, m1.cod, m2.cod)]
            arrows = [(0, 1, u_of_morphism(m1).bottom),
                      (0, 2, u_of_morphism(m2).bottom)]
            expected, exp_legs = delta_colimit(bodies, arrows)
            got = body(stratum_of(out))
            assert iso_over(got, expected,
                            u_of_morphism(legs[0]).bottom,
                            exp_legs[0]) is not None


class TestEqualiser:
    def test_equaliser_of_identical_pair(self):
        rng = random.Random(59)
        st = rand_stratum(rng)
        _, m = pushforward_complex(cx(st), gen.rand_map_from(rng, st.boundary))
        e, inc = cellcx_equaliser(m, m)
        e._validate()
        assert len(stratum_of(e).cells) == len(st.cells)
        assert e.boundary == st.boundary

    def test_u_preserves_equaliser(self):
        from relcell.delta import equaliser as delta_equaliser
        pt = standard_simplex(0)
        a = ("0", "0")
        two = cx(Stratum(pt, [("l1", 1, a), ("l2", 1, a)]))
        swap = morphism(two, two, identity_map(pt), {"l1": "l2", "l2": "l1"})
        ident = identity_morphism(two)
        e, _ = cellcx_equaliser(ident, swap)
        e._validate()
        eb, _ = delta_equaliser(u_of_morphism(ident).bottom,
                                u_of_morphism(swap).bottom)
        assert body(stratum_of(e)) == eb


class TestHeightAtMostOne:
    def test_constructions_keep_one_stratum(self):
        # what lets a stratum stand for its complex: a pushforward, colimit
        # or equaliser of complexes of height <= 1 has height <= 1
        rng = random.Random(113)
        for _ in range(20):
            s0 = rand_stratum(rng)
            sub = Stratum(s0.boundary, rng.sample(
                s0.cells, rng.randint(0, len(s0.cells))))
            c = cx(s0)
            assert stratum_of(c) == s0 and stratum_of(cx(sub)) == sub
            p1, m1 = pushforward_complex(
                c, gen.rand_map_from(rng, s0.boundary))
            p2, m2 = pushforward_complex(
                c, gen.rand_map_from(rng, s0.boundary))
            span, _ = cellcx_colimit([c, p1, p2], [(0, 1, m1), (0, 2, m2)])
            # c + c glued along sub, and c + c pushed forward: each pair of
            # legs agrees on the cells of sub, or on none
            two, (j0, j1) = cellcx_coproduct([c, c])
            incl = CellComplexMorphism(cx(sub), c,
                                       inclusion_map(cx(sub).body, c.body))
            glued, (_, q0) = cellcx_colimit(
                [cx(sub), two], [(0, 1, compose_morphisms(j0, incl)),
                                 (0, 1, compose_morphisms(j1, incl))])
            _, q1 = pushforward_complex(two,
                                        gen.rand_map_from(rng, two.boundary))
            outs = [p1, p2, span, two, glued, q1.cod]
            for q in (q0, q1):
                eq, _ = cellcx_equaliser(compose_morphisms(q, j0),
                                         compose_morphisms(q, j1))
                outs.append(eq)
            assert len(outs[-2].cell_ids) == len(sub.cells)
            for out in outs:
                out._validate()
                assert out.height <= 1
