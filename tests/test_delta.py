"""Base category: complexes, maps, hom enumeration, and (co)limits."""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from relcell import (
    ArrowSquare,
    DeltaComplex,
    DeltaError,
    EMPTY,
    SimplicialMap,
    boundary_complex,
    boundary_restriction,
    characteristic_map,
    coequaliser,
    colimit,
    compose,
    composes_to,
    coproduct,
    enumerate_homs,
    equaliser,
    free_complex,
    identity_map,
    inclusion_map,
    is_pullback,
    mec,
    mediate,
    pushout,
    standard_simplex,
    top_simplex_id,
)
from relcell import gen
from relcell.delta import MAX_DIM
from conftest import attach_map, boundary_lifts, rand_cell_complex


def brute_homs(dom, cod):
    """Independent oracle: all maps by raw product over assignments, in
    lexicographic order of the assignments in dimension order."""
    order = [s for _, s in dom.all_ids()]
    pools = []
    for s in order:
        pools.append(sorted(cod.ids(dom.dim(s))))
    found = []
    for combo in itertools.product(*pools):
        assign = dict(zip(order, combo))
        ok = True
        for s in order:
            if dom.dim(s) >= 1:
                expected = tuple(assign[f] for f in dom.faces_of(s))
                if cod.faces_of(assign[s]) != expected:
                    ok = False
                    break
        if ok:
            found.append(assign)
    return found


class TestComplexes:
    def test_standard_simplex_sizes(self):
        assert len(standard_simplex(0).ids(0)) == 1
        assert standard_simplex(0).max_dim == 0
        d1 = standard_simplex(1)
        assert (len(d1.ids(0)), len(d1.ids(1))) == (2, 1)
        assert d1.faces_of("01") == ("1", "0")
        d2 = standard_simplex(2)
        assert [len(d2.ids(k)) for k in range(3)] == [3, 3, 1]

    def test_boundary_complexes(self):
        assert boundary_complex(0) == EMPTY
        assert EMPTY.max_dim == -1
        b1 = boundary_complex(1)
        assert (len(b1.ids(0)), b1.max_dim) == (2, 0)
        b2 = boundary_complex(2)
        assert [len(b2.ids(k)) for k in range(2)] == [3, 3]
        assert b2.max_dim == 1

    def test_standard_simplices_are_shared(self):
        for k in range(10):
            assert standard_simplex(k) is standard_simplex(k)
            assert boundary_complex(k) is boundary_complex(k)
        # out-of-range calls raise every time: errors are not cached
        for k in (10, -1, 10, -1):
            with pytest.raises(DeltaError):
                standard_simplex(k)
            with pytest.raises(DeltaError):
                boundary_complex(k)

    def test_validation_rejects_missing_face(self):
        with pytest.raises(DeltaError):
            DeltaComplex({0: ["a"], 1: [("e")]},
                         {"e": ("a", "missing")})

    def test_validation_rejects_broken_identity(self):
        # two triangles sharing names but inconsistent iterated faces
        d2 = standard_simplex(2)
        bad_faces = dict(d2.faces)
        bad_faces["012"] = ("01", "02", "12")  # wrong order
        with pytest.raises(DeltaError):
            DeltaComplex(dict(d2.simplices), bad_faces)

    def test_validation_rejects_duplicate_ids(self):
        with pytest.raises(DeltaError):
            DeltaComplex({0: ["a", "a"]}, {})

    def test_subcomplex_and_containment(self):
        d1 = standard_simplex(1)
        sub = d1.subcomplex({"0"})
        assert sub.is_subcomplex_of(d1)
        assert "0" in sub and "01" not in sub
        with pytest.raises(DeltaError):
            d1.subcomplex({"01"})  # not face-closed


class TestMaps:
    def test_identity_and_compose(self):
        d2 = standard_simplex(2)
        i = identity_map(d2)
        assert compose(i, i) == i

    def test_validation(self):
        d1 = standard_simplex(1)
        b1 = boundary_complex(1)
        with pytest.raises(DeltaError):
            SimplicialMap(d1, d1, {"0": "0"})  # not total
        with pytest.raises(DeltaError):
            SimplicialMap(b1, d1, {"0": "01", "1": "1"})  # dim mismatch
        with pytest.raises(DeltaError):
            # face commutation broken: edge to edge, vertices swapped
            SimplicialMap(d1, d1, {"0": "1", "1": "0", "01": "01"})

    def test_inverse(self):
        b1 = boundary_complex(1)
        swap = SimplicialMap(b1, b1, {"0": "1", "1": "0"})
        assert swap.is_bijective()
        assert compose(swap, swap.inverse()) == identity_map(b1)

    def test_fibre_index_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(20):
            f = gen.rand_map(rng, max_dim=2)
            brute = {}
            for k, t in f.cod.all_ids():
                pre = tuple(sorted(s for s in f.dom.ids(k)
                                   if f.assign[s] == t))
                if pre:
                    brute[(k, t)] = pre
            fibres = {(k, t): tuple(f.prefix_index(k)[(t, ())])
                      for k, t in f.cod.all_ids()
                      if (t, ()) in f.prefix_index(k)}
            assert fibres == brute
            assert f.prefix_index(2) is f.prefix_index(2)

    def test_characteristic_and_boundary_restriction(self):
        d2 = standard_simplex(2)
        chi = characteristic_map(d2, "012")
        assert chi.assign == {s: s for s in d2.id_set}
        r = boundary_restriction(d2, "01")
        assert r.assign == {"0": "0", "1": "1"}


def validate_oracle(m):
    """``SimplicialMap._validate`` as it was, with two sets and a generator
    per face tuple: the oracle of the validator."""
    if set(m.assign) != set(m.dom._dim_of):
        raise DeltaError("assignment is not total on the domain")
    for s, t in m.assign.items():
        k = m.dom.dim(s)
        if m.cod._dim_of.get(t) != k:
            raise DeltaError(f"{s!r} ({k}-simplex) maps to bad id {t!r}")
        if k >= 1:
            want = tuple(m.assign[f] for f in m.dom.faces[s])
            if m.cod.faces[t] != want:
                raise DeltaError(f"face commutation fails at {s!r}")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 16), st.data())
def test_validation_matches_the_oracle(seed, data):
    """On random maps with one assignment corrupted (redrawn from every id
    of the codomain or outside it, dropped, moved to an unknown id, or
    added for one),
    the validator accepts exactly what the oracle accepts and raises its
    message."""
    f = gen.rand_map(random.Random(seed), max_dim=3)
    assign = dict(f.assign)
    how = data.draw(st.sampled_from(["redraw", "drop", "rename", "add",
                                     "none"]))
    if how == "add":
        assign["ghost"] = data.draw(st.sampled_from(sorted(f.cod.id_set)))
    elif how != "none" and assign:
        s = data.draw(st.sampled_from(sorted(assign)))
        if how == "drop":
            del assign[s]
        elif how == "rename":
            assign["ghost"] = assign.pop(s)
        else:
            assign[s] = data.draw(
                st.sampled_from(sorted(f.cod.id_set) + ["ghost"]))

    def outcome(check):
        try:
            check()
        except DeltaError as err:
            return str(err)
        return None

    want = outcome(lambda: validate_oracle(
        SimplicialMap(f.dom, f.cod, assign, validate=False)))
    assert outcome(lambda: SimplicialMap(f.dom, f.cod, assign)) == want


def _rebuilt(x):
    """An equal complex that shares no object with x."""
    return DeltaComplex(x.simplices, x.faces)


def _rebuilt_map(f):
    """An equal map that shares no object with f."""
    return SimplicialMap(_rebuilt(f.dom), _rebuilt(f.cod), f.assign)


def _bigon(d0, d1):
    """Two edges e, f from vertex a to vertex b, f with faces (d0, d1)."""
    return DeltaComplex({0: ["a", "b"], 1: ["e", "f"]},
                        {"e": ("b", "a"), "f": (d0, d1)})


class TestEquality:
    """``==`` compares content; it must agree with ``key()`` equality,
    and equal values must hash equal."""

    @staticmethod
    def _check_pairs(values):
        for a in values:
            for b in values:
                assert (a == b) == (a.key() == b.key()) == (b == a)
                if a == b:
                    assert hash(a) == hash(b)

    def test_complexes_agree_with_key_and_hash(self):
        rng = random.Random(16)
        values = []
        for _ in range(25):
            x = gen.rand_complex(rng, max_dim=2)
            extra = DeltaComplex({**x.simplices, 0: x.ids(0) + ("v*",)},
                                 x.faces)
            assert extra.faces == x.faces and extra != x
            values += [x, _rebuilt(x), extra]
        values += [EMPTY, _rebuilt(EMPTY), _bigon("b", "a"),
                   _bigon("a", "b")]
        assert _bigon("b", "a") != _bigon("a", "b")  # permuted faces
        self._check_pairs(values)

    def test_maps_agree_with_key_and_hash(self):
        rng = random.Random(17)
        values = []
        for _ in range(25):
            f = gen.rand_map(rng, max_dim=1)
            values += [f, _rebuilt_map(f), identity_map(f.cod)]
        # one assignment, different endpoints
        out_of_empty = [SimplicialMap(EMPTY, standard_simplex(k), {})
                        for k in range(3)]
        bigons = [identity_map(_bigon("b", "a")),
                  identity_map(_bigon("a", "b"))]
        assert bigons[0].assign == bigons[1].assign
        assert bigons[0] != bigons[1] and out_of_empty[0] != out_of_empty[1]
        self._check_pairs(values + out_of_empty + bigons)

    def test_equality_builds_no_key(self):
        f = gen.rand_map(random.Random(7), max_dim=2)
        a, b = _rebuilt_map(f), _rebuilt_map(f)
        assert a is not b and a.dom is not b.dom and a.cod is not b.cod
        assert a == b and a.dom == b.dom
        for value in (a, b, a.dom, b.dom, a.cod, b.cod):
            assert value._key is None


class TestComposesTo:
    """``composes_to(f, g, h)`` is ``compose(f, g) == h``, endpoint errors
    included, without building the composite."""

    def test_agrees_with_compose(self):
        rng = random.Random(41)
        checked = mismatched = 0
        for _ in range(40):
            g = gen.rand_map(rng, max_dim=2)
            f = gen.rand_map_from(rng, g.cod)
            fg = compose(f, g)
            others = enumerate_homs(g.dom, f.cod, limit=4)
            # unequal endpoints: a wider codomain, the domain of f, and a
            # map with equal assignments over another domain
            wider = compose(gen.rand_map_from(rng, f.cod), fg)
            pt = standard_simplex(0)
            stray = SimplicialMap(EMPTY, pt, {})
            for h in [fg, _rebuilt_map(fg), identity_map(g.dom),
                      identity_map(f.dom), wider, stray, *others]:
                want = compose(f, g) == h
                assert composes_to(f, g, h) is want
                checked += want
            if f.cod != g.dom:  # g after f does not compose
                mismatched += 1
                with pytest.raises(DeltaError, match="endpoint mismatch"):
                    compose(g, f)
                with pytest.raises(DeltaError, match="endpoint mismatch"):
                    composes_to(g, f, fg)
        assert checked >= 80 and mismatched >= 20

    def test_same_assignments_other_endpoints(self):
        bigons = [identity_map(_bigon("b", "a")),
                  identity_map(_bigon("a", "b"))]
        f = bigons[0]
        assert not composes_to(f, f, bigons[1])
        assert composes_to(f, f, f)
        out_of_empty = [SimplicialMap(EMPTY, standard_simplex(k), {})
                        for k in range(2)]
        assert not composes_to(identity_map(standard_simplex(0)),
                               out_of_empty[0], out_of_empty[1])


class TestHomEnumeration:
    def test_representable_count(self):
        x = standard_simplex(2)
        for k in range(3):
            homs = enumerate_homs(standard_simplex(k), x)
            assert len(homs) == len(x.ids(k))

    def test_boundary_one_square_count(self):
        x = coproduct([standard_simplex(0)] * 3)[0]
        assert len(enumerate_homs(boundary_complex(1), x)) == 9

    def test_boundary_two_endomorphism_unique(self):
        b2 = boundary_complex(2)
        homs = enumerate_homs(b2, b2)
        oracle = brute_homs(b2, b2)
        assert len(homs) == len(oracle) == 1
        assert homs[0] == identity_map(b2)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(3)
        for _ in range(10):
            dom = gen.rand_subcomplex(rng, standard_simplex(2))
            cod = gen.rand_complex(rng, max_dim=1)
            slow = brute_homs(dom, cod)
            assert [h.assign for h in enumerate_homs(dom, cod)] == slow
            for limit in (0, 1, 2, 24):
                assert [h.assign for h in
                        enumerate_homs(dom, cod, limit=limit)] == \
                    slow[:limit]

    def test_dimension_9_boundary_does_not_recurse(self):
        # 1,022 domain simplices: deeper than the interpreter's stack
        bd, full = boundary_complex(9), standard_simplex(9)
        incl = inclusion_map(bd, full)
        assert enumerate_homs(bd, full, post=(identity_map(full), incl)) \
            == [incl]

    def test_searches_leave_no_garbage_cycles(self):
        f = gen.rand_map(random.Random(5), max_dim=2)
        gc.collect()
        gc.disable()
        try:
            for k, t in f.cod.all_ids():
                boundary_lifts(f, t)
                enumerate_homs(boundary_complex(k), f.dom,
                               post=(f, boundary_restriction(f.cod, t)))
            free_complex(f)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_post_constraint(self):
        f = inclusion_map(boundary_complex(1), standard_simplex(1))
        tgt = boundary_restriction(standard_simplex(1), "01")
        homs = enumerate_homs(boundary_complex(1), f.dom, post=(f, tgt))
        assert len(homs) == 1
        assert homs[0].assign == {"0": "0", "1": "1"}

    def test_boundary_lifts_match_post_constrained_homs(self):
        """The lifts are the post-constrained homs, the proper ones those
        with an image outside ``old``, listed in increasing facet tuples."""
        rng = random.Random(41)
        for max_dim in [2] * 20 + [3] * 20:
            f = gen.rand_map(rng, max_dim=max_dim)
            if max_dim == 3:  # a counit lifts most shape-3 targets, often
                f = free_complex(f).ef  # more than once
            old = gen.rand_subcomplex(rng, f.dom).id_set
            new = f.dom.id_set - old
            for k, t in f.cod.all_ids():
                homs = enumerate_homs(boundary_complex(k), f.dom,
                                      post=(f, boundary_restriction(f.cod, t)))
                want = sorted(tuple(sorted(h.assign.items())) for h in homs)
                proper = [u for u in want
                          if not {s for _, s in u} <= old]
                facets = standard_simplex(k).faces_of(top_simplex_id(k))
                for kept, got in ((want, boundary_lifts(f, t)),
                                  (proper, boundary_lifts(f, t, new))):
                    assert sorted(tuple(sorted(u.assign.items()))
                                  for u in got) == kept
                    order = [tuple(map(u.assign.get, facets)) for u in got]
                    assert all(x < y for x, y in zip(order, order[1:]))

    @pytest.mark.parametrize("k", range(MAX_DIM + 1))
    def test_boundary_lifts_of_the_top_simplex(self, k):
        """Along the identity of the standard k-simplex, the top simplex
        lifts exactly once: by the boundary inclusion, which is proper
        unless k is 0 (it has no facet)."""
        full = standard_simplex(k)
        incl = inclusion_map(boundary_complex(k), full)
        top = top_simplex_id(k)
        assert boundary_lifts(identity_map(full), top) == [incl]
        assert boundary_lifts(identity_map(full), top, full.id_set) == \
            ([incl] if k else [])


class TestColimits:
    def test_coproduct_examples(self):
        pt = standard_simplex(0)
        two, legs = coproduct([pt, pt])
        assert len(two.ids(0)) == 2 and len(legs) == 2
        assert coproduct([])[0] == EMPTY
        x, _ = coproduct([standard_simplex(1), boundary_complex(2)])
        assert (len(x.ids(0)), len(x.ids(1))) == (5, 4)

    def test_pushout_bigon(self):
        f = inclusion_map(boundary_complex(1), standard_simplex(1))
        p, px, py = pushout(f, f)
        assert (len(p.ids(0)), len(p.ids(1))) == (2, 2)
        assert compose(px, f) == compose(py, f)

    def test_pushout_loop(self):
        f = inclusion_map(boundary_complex(1), standard_simplex(1))
        g = SimplicialMap(boundary_complex(1), standard_simplex(0),
                          {"0": "0", "1": "0"})
        p, px, py = pushout(f, g)
        assert (len(p.ids(0)), len(p.ids(1))) == (1, 1)
        e = next(iter(p.ids(1)))
        assert p.faces_of(e)[0] == p.faces_of(e)[1]

    def test_pushout_over_empty_is_coproduct(self):
        x, y = standard_simplex(1), boundary_complex(2)
        p, _, _ = pushout(SimplicialMap(EMPTY, x, {}),
                          SimplicialMap(EMPTY, y, {}))
        assert len(p.ids(0)) == 5 and len(p.ids(1)) == 4

    def test_pushout_fresh_id_policy(self):
        rng = random.Random(5)
        for _ in range(20):
            y = gen.rand_complex(rng)
            sub = gen.rand_subcomplex(rng, y)
            f = inclusion_map(sub, y)  # injective
            g = gen.rand_map_from(rng, sub)
            # pushing out along the injective f: the opposite leg keeps
            # g's codomain ids verbatim and stays injective
            _, qx, qy = pushout(f, g)
            assert all(qy.assign[s] == s for s in g.cod.id_set)
            assert qy.is_injective()

    def test_pushout_union_find_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            a = gen.rand_complex(rng, max_dim=1)
            f = gen.rand_map_from(rng, a)
            g = gen.rand_map_from(rng, a)
            p, px, py = pushout(f, g)
            # oracle: naive class merging over tagged ids
            classes = {("x", s): {("x", s)} for s in f.cod.id_set}
            classes.update({("y", s): {("y", s)} for s in g.cod.id_set})
            for s in a.id_set:
                u, v = ("x", f.assign[s]), ("y", g.assign[s])
                if classes[u] is not classes[v]:
                    merged = classes[u] | classes[v]
                    for m in merged:
                        classes[m] = merged
            expected = {frozenset(c) for c in classes.values()}
            got = {}
            for s in f.cod.id_set:
                got.setdefault(px.assign[s], set()).add(("x", s))
            for s in g.cod.id_set:
                got.setdefault(py.assign[s], set()).add(("y", s))
            assert {frozenset(c) for c in got.values()} == expected

    def test_mediate_pushout(self):
        rng = random.Random(13)
        for _ in range(15):
            a = gen.rand_complex(rng, max_dim=1)
            f = gen.rand_map_from(rng, a)
            g = gen.rand_map_from(rng, a)
            p, px, py = pushout(f, g)
            h = gen.rand_map_from(rng, p)
            u, v = compose(h, px), compose(h, py)
            m = mediate([px, py], [u, v])
            assert m == h  # uniqueness: mediating map is forced

    def test_coequaliser_examples(self):
        d1 = standard_simplex(1)
        pt = standard_simplex(0)
        e0 = SimplicialMap(pt, d1, {"0": "0"})
        e1 = SimplicialMap(pt, d1, {"0": "1"})
        q, proj = coequaliser(e0, e1)
        assert (len(q.ids(0)), len(q.ids(1))) == (1, 1)
        b1 = boundary_complex(1)
        f = SimplicialMap(pt, b1, {"0": "0"})
        g = SimplicialMap(pt, b1, {"0": "1"})
        q2, _ = coequaliser(f, g)
        assert len(q2.ids(0)) == 1
        q3, p3 = coequaliser(e0, e0)
        assert p3.is_bijective()

    def test_mediate_coequaliser(self):
        d1 = standard_simplex(1)
        pt = standard_simplex(0)
        e0 = SimplicialMap(pt, d1, {"0": "0"})
        e1 = SimplicialMap(pt, d1, {"0": "1"})
        q, proj = coequaliser(e0, e1)
        collapse = SimplicialMap(d1, q, proj.assign)
        m = mediate([proj], [collapse])
        assert compose(m, proj) == collapse

    def test_mediate_rejects_bad_cocones(self):
        d1, pt = standard_simplex(1), standard_simplex(0)
        _, proj = coequaliser(SimplicialMap(pt, d1, {"0": "0"}),
                              SimplicialMap(pt, d1, {"0": "1"}))
        with pytest.raises(DeltaError, match="does not commute"):
            mediate([proj], [identity_map(d1)])  # keeps 0 and 1 apart
        _, px, py = pushout(*[inclusion_map(boundary_complex(1), d1)] * 2)
        u = identity_map(d1)
        for legs, maps in [([proj], [identity_map(pt)]),  # wrong domain
                           ([px, py], [u, proj]),  # two codomains
                           ([px, proj], [u, u]),  # two quotients
                           ([px, py], [u]), ([], [])]:
            with pytest.raises(DeltaError, match="endpoints"):
                mediate(legs, maps)

    def test_colimit_matches_pushout(self):
        rng = random.Random(17)
        for _ in range(10):
            a = gen.rand_complex(rng, max_dim=1)
            f = gen.rand_map_from(rng, a)
            g = gen.rand_map_from(rng, a)
            p, px, py = pushout(f, g)
            q, legs = colimit([a, f.cod, g.cod],
                              [(0, 1, f), (0, 2, g)])
            # same universal object: compare class partitions via legs
            iso = mediate([px, py], legs[1:])
            assert iso.is_bijective()

    def test_equaliser_examples(self):
        b1 = boundary_complex(1)
        swap = SimplicialMap(b1, b1, {"0": "1", "1": "0"})
        e, inc = equaliser(identity_map(b1), swap)
        assert e == EMPTY
        e2, _ = equaliser(identity_map(b1), identity_map(b1))
        assert e2 == b1
        two, _ = coproduct([standard_simplex(0), standard_simplex(0)])
        pt = standard_simplex(0)
        f = SimplicialMap(two, pt, {"0.0": "0", "1.0": "0"})
        g = SimplicialMap(two, pt, {"0.0": "0", "1.0": "0"})
        other, _ = coproduct([standard_simplex(0), standard_simplex(0)])
        h1 = SimplicialMap(two, other, {"0.0": "0.0", "1.0": "0.0"})
        h2 = SimplicialMap(two, other, {"0.0": "0.0", "1.0": "1.0"})
        e3, _ = equaliser(h1, h2)
        assert len(e3.ids(0)) == 1


class TestPullbacks:
    def test_intersection_square(self):
        d2 = standard_simplex(2)
        a = d2.subcomplex({"0", "1", "01"})
        b = d2.subcomplex({"1", "2", "12"})
        both = d2.subcomplex({"1"})
        sq = ArrowSquare(top=inclusion_map(both, a),
                         left=inclusion_map(both, b),
                         right=inclusion_map(a, d2),
                         bottom=inclusion_map(b, d2))
        assert is_pullback(sq)

    def test_empty_corner_fails(self):
        d2 = standard_simplex(2)
        a = d2.subcomplex({"0", "1", "01"})
        sq = ArrowSquare(top=SimplicialMap(EMPTY, a, {}),
                         left=SimplicialMap(EMPTY, a, {}),
                         right=inclusion_map(a, d2),
                         bottom=inclusion_map(a, d2))
        assert not is_pullback(sq)

    def test_non_commuting_square_rejected(self):
        b1 = boundary_complex(1)
        swap = SimplicialMap(b1, b1, {"0": "1", "1": "0"})
        with pytest.raises(DeltaError):
            ArrowSquare(top=identity_map(b1), left=identity_map(b1),
                        right=identity_map(b1), bottom=swap)


class TestFiltration:
    def test_mec_examples(self):
        d1 = standard_simplex(1)
        sub = d1.subcomplex({"0"})
        filt = (sub, d1)
        assert mec(SimplicialMap(EMPTY, d1, {}), filt) == 0
        assert mec(inclusion_map(d1, d1), filt) == 1
        assert mec(SimplicialMap(standard_simplex(0), d1, {"0": "0"}),
                   filt) == 0

    def test_mec_of_proper_complex_cells(self):
        rng = random.Random(23)
        for _ in range(20):
            c = rand_cell_complex(rng, max_cells=5)
            for n, (_, k, images) in c.all_cells():
                lifted = attach_map(k, images, c.body)
                assert mec(lifted, c.filtration) == n


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_representable_hom_count_property(seed):
    rng = random.Random(seed)
    x = gen.rand_complex(rng, max_dim=2)
    for k in range(x.max_dim + 1):
        assert len(enumerate_homs(standard_simplex(k), x)) == len(x.ids(k))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_boundary_one_hom_count_property(seed):
    rng = random.Random(seed)
    x = gen.rand_complex(rng, max_dim=1)
    assert len(enumerate_homs(boundary_complex(1), x)) \
        == len(x.ids(0)) ** 2
