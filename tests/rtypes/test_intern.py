"""Hash-consing invariants: interning, fingerprints, pickling, fresh copies."""

import pickle

from repro.rtypes import (
    AnyType,
    CompExpr,
    ConstStringType,
    FiniteHashType,
    GenericType,
    MethodType,
    NominalType,
    SingletonType,
    TupleType,
    UnionType,
    VarType,
    make_union,
    parse_method_type,
    parse_type,
    subtype,
)
from repro.rtypes.intern import fingerprint, fresh_copy, intern, try_intern
from repro.rtypes.kinds import Sym


def test_interning_canonicalizes_equal_structures():
    a = intern(NominalType("String"))
    b = intern(NominalType("String"))
    assert a is b
    assert intern(SingletonType(Sym("emails"))) is intern(SingletonType(Sym("emails")))
    assert intern(AnyType()) is intern(AnyType())
    g1 = intern(GenericType("Array", [NominalType("Integer")]))
    g2 = intern(GenericType("Array", [NominalType("Integer")]))
    assert g1 is g2
    assert g1.params[0] is intern(NominalType("Integer"))


def test_interned_types_keep_structural_equality_semantics():
    interned = intern(NominalType("User"))
    plain = NominalType("User")
    assert interned == plain and plain == interned
    assert hash(interned) == hash(plain)
    assert interned != intern(NominalType("Email"))
    # distinct singleton values stay distinct (True vs 1 in particular)
    assert intern(SingletonType(True)) is not intern(SingletonType(1))


def test_union_interning_is_order_insensitive():
    u1 = intern(make_union([NominalType("Integer"), NominalType("String")]))
    u2 = intern(make_union([NominalType("String"), NominalType("Integer")]))
    assert u1 is u2


def test_mutable_types_never_intern():
    assert try_intern(TupleType([NominalType("Integer")])) is None
    assert try_intern(FiniteHashType({Sym("a"): NominalType("Integer")})) is None
    assert try_intern(ConstStringType("SELECT 1")) is None
    # ...nor does anything containing one
    assert try_intern(GenericType("Array", [TupleType([])])) is None
    assert try_intern(MethodType([TupleType([])], None, NominalType("Integer"))) is None


def test_comp_expr_and_method_types_intern():
    sig1 = parse_method_type("(t<:Symbol) -> «tself»")
    sig2 = parse_method_type("(t<:Symbol) -> «tself»")
    assert sig1 is sig2  # fully immutable signature: one canonical object
    assert sig1._interned
    assert isinstance(sig1.ret, CompExpr)


def test_signatures_with_mutable_parts_get_fresh_copies():
    text = "({ name: String }) -> [Integer, String]"
    sig1 = parse_method_type(text)
    sig2 = parse_method_type(text)
    assert sig1 is not sig2
    assert sig1 == sig2
    # weak-updating one caller's copy must not leak into the next parse
    sig1.ret.widen_elem(0, NominalType("Float"))
    sig3 = parse_method_type(text)
    assert sig3 == sig2
    assert sig3 != sig1


def test_pickle_reinterns_to_the_canonical_object():
    canon = intern(GenericType("Array", [SingletonType(Sym("k"))]))
    clone = pickle.loads(pickle.dumps(canon))
    assert clone is canon
    union = intern(make_union([NominalType("Integer"), VarType("t")]))
    assert pickle.loads(pickle.dumps(union)) is union


def test_pickle_of_mutable_types_stays_structural():
    fh = FiniteHashType({Sym("id"): intern(NominalType("Integer"))})
    clone = pickle.loads(pickle.dumps(fh))
    assert clone is not fh
    assert clone == fh
    # the immutable leaf inside re-interned to the canonical instance
    assert clone.elts[Sym("id")] is intern(NominalType("Integer"))


def test_pickle_never_ships_cached_hashes_or_fingerprints():
    """`_hash` is PYTHONHASHSEED-dependent and `_fp` indexes this process's
    fingerprint table: a cached value shipped to a worker process would
    make equal types hash unequal there (two entries for one dict key)."""
    t = MethodType([TupleType([NominalType("Integer")])], None,
                   NominalType("String"))
    hash(t)          # populate the cache
    fingerprint(t)
    assert t._hash != -1
    clone = pickle.loads(pickle.dumps(t))
    assert clone._hash == -1 and clone._fp == -1  # recomputed lazily
    assert clone == t and hash(clone) == hash(t)  # same process: same seed
    # nested mutable state survives the round trip
    assert clone.args[0] == t.args[0]


def test_fingerprints_identify_current_structure():
    a = FiniteHashType({Sym("id"): NominalType("Integer")})
    b = FiniteHashType({Sym("id"): NominalType("Integer")})
    assert fingerprint(a) == fingerprint(b)
    before = fingerprint(a)
    a.widen_key(Sym("id"), NominalType("String"))
    assert fingerprint(a) != before
    assert fingerprint(b) == before  # ids are never recycled
    assert fingerprint(intern(NominalType("X"))) == fingerprint(NominalType("X"))
    assert fingerprint(NominalType("X")) != fingerprint(NominalType("Y"))


def test_fresh_copy_shares_immutable_and_copies_mutable():
    leaf = intern(NominalType("Integer"))
    tup = TupleType([leaf, ConstStringType("q")])
    copy = fresh_copy(tup)
    assert copy is not tup
    assert copy == tup
    assert copy.elts[0] is leaf
    assert copy.elts[1] is not tup.elts[1]
    copy.widen_elem(0, NominalType("String"))
    assert tup.elts[0] is leaf  # original untouched
    assert fresh_copy(leaf) is leaf


def test_subtype_agrees_on_interned_pairs():
    s = intern(parse_type("Integer"))
    t = intern(parse_type("Integer or String"))
    assert subtype(s, t)
    assert subtype(s, t)  # a repeated query agrees
    assert not subtype(t, s)
    assert subtype(intern(parse_type("Array<Integer>")), intern(parse_type("Array<Integer>")))


# ---------------------------------------------------------------------------
# interned binding environments
# ---------------------------------------------------------------------------

def test_env_fingerprint_interns_whole_binding_dicts():
    from repro.rtypes.intern import env_fingerprint

    a = {"tself": intern(NominalType("User")),
         "t": intern(NominalType("Integer"))}
    b = {"t": intern(NominalType("Integer")),
         "tself": intern(NominalType("User"))}  # different insertion order
    assert env_fingerprint(a) == env_fingerprint(b)
    assert env_fingerprint(a) != env_fingerprint(
        {"tself": intern(NominalType("Email"))})
    assert env_fingerprint({}) == env_fingerprint({})
    # a fresh structurally-equal environment (new dict, re-interned types)
    # resolves to the same id
    c = {"tself": intern(NominalType("User")),
         "t": intern(NominalType("Integer"))}
    assert env_fingerprint(c) == env_fingerprint(a)


def test_env_fingerprint_snapshots_mutable_bindings():
    from repro.rtypes.intern import env_fingerprint

    fh = FiniteHashType({Sym("id"): NominalType("Integer")})
    env = {"tself": fh}
    before = env_fingerprint(env)
    assert env_fingerprint({"tself": FiniteHashType(
        {Sym("id"): NominalType("Integer")})}) == before
    fh.widen_key(Sym("id"), NominalType("String"))
    assert env_fingerprint(env) != before  # mutation changes the env id


def test_binding_key_is_a_single_int():
    from repro.incremental.cache import binding_key

    key = binding_key({"tself": intern(NominalType("User"))})
    assert isinstance(key, int)
    assert binding_key({"tself": intern(NominalType("User"))}) == key
    assert binding_key({}) != key
