import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import moleval.fingerprint as fingerprint
from _oracles import (
    morgan_features_reference,
    path_features_reference,
    random_molecule,
    tanimoto_reference,
)
from moleval.fingerprint import (
    Fingerprint,
    KindMismatch,
    WidthMismatch,
    _fnv1a,
    _fnv1a_lanes,
    _fold,
    _morgan_hashes,
    _path_hashes,
    morgan_features,
    morgan_fp,
    path_features,
    path_fp,
    tanimoto,
)
from moleval.molgraph import parse_smiles
from moleval.textmetrics import exact_match_graphs

C60 = (
    "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9"
    "c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41"
)
TBU_STAR = "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"


def test_methane_radius_zero_single_bit():
    fp = morgan_fp(parse_smiles("C"), radius=0)
    assert fp.popcount() == 1


def test_ethanol_morgan_feature_bound():
    feats = morgan_features(parse_smiles("CCO"), radius=1)
    assert len(feats) <= 6


def test_path_counts():
    assert len(path_features(parse_smiles("CC"), 1)) == 1
    assert len(path_features(parse_smiles("CCO"), 2)) == 3
    # benzene: all single-bond paths of a given length look alike
    assert len(path_features(parse_smiles("c1ccccc1"), 3)) == 3


def test_permutation_invariance():
    rng = random.Random(42)
    for text in ["CC(C)C(=O)O", "c1ccc2ccccc2c1", "Cn1cnc2c1c(=O)n(C)c(=O)n2C"]:
        g = parse_smiles(text)
        base_m = morgan_fp(g)
        base_p = path_fp(g)
        for _ in range(10):
            perm = list(range(len(g.atoms)))
            rng.shuffle(perm)
            h = g.permuted(perm)
            assert morgan_fp(h) == base_m
            assert path_fp(h) == base_p


def test_tanimoto_basics():
    a = parse_smiles("CCO")
    fp = morgan_fp(a)
    assert tanimoto(fp, fp) == 1.0
    empty = Fingerprint(bits=0, width=2048, kind=fp.kind)
    assert tanimoto(empty, empty) == 1.0
    assert tanimoto(fp, empty) == 0.0


def test_tanimoto_set_arithmetic():
    a = Fingerprint(bits=(1 << 1) | (1 << 2) | (1 << 3), width=64, kind="morgan:2")
    b = Fingerprint(bits=(1 << 2) | (1 << 3) | (1 << 4), width=64, kind="morgan:2")
    assert tanimoto(a, b) == 0.5


def test_tanimoto_mismatches():
    a = morgan_fp(parse_smiles("CCO"), width=2048)
    b = morgan_fp(parse_smiles("CCO"), width=1024)
    with pytest.raises(WidthMismatch):
        tanimoto(a, b)
    c = path_fp(parse_smiles("CCO"), width=2048)
    with pytest.raises(KindMismatch):
        tanimoto(a, c)


def test_width_validation():
    for width in (32, 100, 2**25, 2**64):
        with pytest.raises(ValueError, match="width must be a power of two, at least 64"):
            Fingerprint(bits=0, width=width, kind="morgan:2")


def test_widest_width_accepted():
    assert path_fp(parse_smiles("CCO"), width=2**24).width == 2**24
    assert Fingerprint(bits=0, width=2**24, kind="morgan:2").width == 2**24


@pytest.mark.parametrize("width", [0, -64, 32, 100, 2**25, 2**64])
@pytest.mark.parametrize("make", [path_fp, morgan_fp])
def test_fp_width_checked_before_walk(make, width, monkeypatch):
    # a width above 2**24 is refused too: at 2**64 the fold's int would not
    # fit in memory
    def walk(*args):
        raise AssertionError("walked before checking the width")

    monkeypatch.setattr(fingerprint, "_path_hashes", walk)
    monkeypatch.setattr(fingerprint, "_morgan_hashes", walk)
    with pytest.raises(ValueError, match="width must be a power of two, at least 64"):
        make(parse_smiles("CCO"), width=width)


@pytest.mark.parametrize("max_len", [0, -1])
def test_path_features_max_len_checked_before_walk(max_len, monkeypatch):
    # with max_len < 1 no path is ever longest, so on C60 the walk would not end
    def lanes(*args):
        raise AssertionError("walked before checking max_len")

    monkeypatch.setattr(fingerprint, "_fnv1a_lanes", lanes)
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        path_features(parse_smiles(C60), max_len)


_STATE = st.sampled_from((0, 2**64 - 1)) | st.integers(0, 2**64 - 1)
# 2**23 - 1 is the widest mask hashed in 4-byte lanes
_MASKS = (2**6 - 1, 2**11 - 1, 2**23 - 1, 2**24 - 1, 2**40 - 1, 2**64 - 1)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((0, 1, 16, 19, 40)).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.lists(
                st.tuples(_STATE, st.binary(min_size=width, max_size=width)),
                min_size=1,
                max_size=8,
            ),
        )
    ),
    st.sampled_from((0, 1, 2, 300)),
    st.sampled_from(_MASKS),
)
def test_fnv1a_lanes_match_scalar(case, n, mask):
    width, pool = case
    states = [pool[i % len(pool)][0] for i in range(n)]
    # lane i's bytes shifted by i: a 300-lane pass has every byte value
    # 0x00-0xff in each column, and neighbouring lanes differ
    texts = [bytes((b + i) % 256 for b in pool[i % len(pool)][1]) for i in range(n)]
    want = [_fnv1a(t, s) for s, t in zip(states, texts)]
    assert _fnv1a_lanes(states, texts, width, mask) == [h & mask for h in want]
    assert [_fnv1a(t, s, mask) for s, t in zip(states, texts)] == [h & mask for h in want]
    if mask == 2**64 - 1:
        assert _fnv1a_lanes(states, texts, width) == want


@pytest.mark.parametrize("text", [C60, "C" * 1500, TBU_STAR], ids=["c60", "chain", "tbu-star"])
def test_path_walk_memory_bounded(text):
    # guards the benchmark's peak_rss_mb: the walk holds a bounded chunk of
    # paths, never a whole level (unchunked, C60 and the chain peak at 2-3 MiB)
    graph = parse_smiles(text)
    tracemalloc.start()
    try:
        path_features(graph, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_symmetry_and_bounds_random():
    rng = random.Random(8)
    for _ in range(30):
        g1 = random_molecule(rng)
        g2 = random_molecule(rng)
        a, b = morgan_fp(g1), morgan_fp(g2)
        assert tanimoto(a, b) == tanimoto(b, a)
        assert 0.0 <= tanimoto(a, b) <= 1.0


def test_containment_prefold():
    # growing a molecule keeps old circular features when the environment
    # of untouched atoms is unchanged; verify the pre-fold ratio directly
    rng = random.Random(3)
    for _ in range(20):
        g1 = random_molecule(rng)
        g2 = random_molecule(rng)
        f1 = morgan_features(g1, 2)
        f2 = morgan_features(g2, 2)
        if f1 <= f2:
            width = 1 << 20
            folded = tanimoto(
                morgan_fp(g1, 2, width), morgan_fp(g2, 2, width)
            )
            assert folded == pytest.approx(len(f1) / len(f2), abs=1e-12)


def test_fold_matches_set_reference():
    rng = random.Random(17)
    for _ in range(20):
        g1 = random_molecule(rng)
        g2 = random_molecule(rng)
        for width in (64, 256, 2048):
            got = tanimoto(morgan_fp(g1, 2, width), morgan_fp(g2, 2, width))
            want = tanimoto_reference(
                morgan_features(g1, 2), morgan_features(g2, 2), width
            )
            assert got == pytest.approx(want, abs=1e-12)


def _oracle_graphs():
    """200 seeded molecules plus C60, a 1500-atom chain, the tert-butyl
    star, methane and a two-ion salt."""
    rng = random.Random(2024)
    graphs = [random_molecule(rng, max_atoms=rng.choice((12, 24))) for _ in range(200)]
    graphs += [
        parse_smiles(text)
        for text in (
            C60,
            "C" * 1500,
            TBU_STAR,
            "C",
            "[Na+].[Cl-]",
        )
    ]
    return graphs


def test_path_features_match_reference():
    # the string-built features are the fingerprint's contract: bits must
    # not move between versions
    for g in _oracle_graphs():
        for max_len in range(1, 8):
            assert path_features(g, max_len) == path_features_reference(g, max_len)


def test_morgan_features_match_reference():
    for g in _oracle_graphs():
        for radius in range(4):
            assert morgan_features(g, radius) == morgan_features_reference(g, radius)


def test_fingerprints_hash_only_the_folded_bits():
    # path_fp and morgan_fp carry their hashes at the bits the fold keeps;
    # they must set the bits a fold of the 64-bit features sets
    for g in _oracle_graphs():
        paths = {max_len: path_features(g, max_len) for max_len in (1, 4, 7)}
        morgans = {radius: morgan_features(g, radius) for radius in range(4)}
        for width in (64, 1024, 2048, 2**16):
            for max_len, features in paths.items():
                assert path_fp(g, max_len, width) == _fold(features, width, f"path:{max_len}")
            for radius, features in morgans.items():
                assert morgan_fp(g, radius, width) == _fold(features, width, f"morgan:{radius}")
        # at the widest width, 2**24, compare the bit positions a fold
        # would set, which builds no 2 MB int per feature
        width = 2**24
        for max_len, features in paths.items():
            assert _path_hashes(g, max_len, width - 1) == {f % width for f in features}
        for radius, features in morgans.items():
            assert _morgan_hashes(g, radius, width - 1) == {f % width for f in features}


# path_features_reference(graph, 7) folded at 2048 bits; the atom codes
# carry total H, so tryptophan's [nH] and the zwitterion's [NH3+] count
# their written hydrogens, and C60's carbons carry none
PINNED_PATH_FP = {
    "aspirin": (
        "0x40010018012000000008209000000040000000000010000820000000009000"
        "4008082001000000000008800020280008110110000000000008000000000004"
        "2000000010101000001000002100000000000108002000040000004000000000"
        "0000000000000000004100101000400000200000000000044800000804001000"
        "000000000c00000000000000000104000000010040001c000010000000008000"
        "004100200000000000000000000000000804003000000800010c000000081000"
        "0808081100000000001000000800021002000000000000000004000000000008"
        "00080040400040000008080800005000104000080000000000001400040000"
    ),
    "caffeine": (
        "0x800000100000000002220000008000000200000000400800000240a212a282"
        "8040848004002013a00228296a0000a040000000808180000028000080000000"
        "8080900020220004800000880008000000000022004c00401000820080420200"
        "00001002800000002000020040200000002000000000004000a000008022000c"
        "c0022002402000000008200200440000000022000a4888020000080000048900"
        "80800000204202000080000400028000802000000000000082800000d0002008"
        "0010000411000000001000008010000000208028000000000000201000000000"
        "00000000210000002002000000000000001000004800100011190020001000"
    ),
    "c60": (
        "0x80000000000000000000000000800000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000080000000"
        "0000000000000000000000000000008000000080000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000008000000000000000"
        "0000000000000000000000000000000000000000008000000000000"
    ),
    "glycine_zwitterion": (
        "0x40000000000020000000000000000004000000008000000000001000000000"
        "0000000000000000000000000000000000000000000000000001000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000008000000000801000000002000000000000000000000000000"
    ),
    "tryptophan": (
        "0x22000080080000004000120100080040004000000000001880044040000110"
        "108000e000100048100004808001500808800000000080000000800040050080"
        "0000040080000000000000080000044040488100800000500000102008000002"
        "001c000000004001400000011000040000600000401000404088400000401288"
        "800000000040001400000000040080004000c070218040c00000000020080000"
        "9010040050480008011000800000742401940080480080a00000881000000000"
        "08008084000020400010080101e0404180000000008084000000100000000400"
        "800408040000080000000089800000004464110040002000044000400040002"
    ),
}


# morgan_features_reference(graph, 2) folded at 2048 bits
PINNED_MORGAN_FP = {
    "aspirin": (
        "0x18000000000000000100000000000000000001000000000000000000000000"
        "0001000000080040000000000100000000000020020404000000000000000000"
        "0000000000000000000000000000000000000800800000000000000000000000"
        "0001800000001000000000000000000000000000000000000000000000000010"
        "0008000400040000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000002000000"
        "0000000000000000000000000000008000000000000040000000000000400010"
        "0010000000000000000000000000000000008080000000000000"
    ),
    "caffeine": (
        "0x20000000000020000000000000000040000001000080000000000002000000"
        "0002000000100000000000808080000000000010000000000002000000000000"
        "0000000000020000000001000000000000000000000000004000000000000000"
        "0000000000000008000000000000000000000000000000000000000000000000"
        "0000000000000000800000000000000000000000000000008000000000000000"
        "0000200000000000000000000000000000000000000000800000000000400000"
        "0000000000000010000000000000000000000001000000000000000000000000"
        "0004000000000000100008000000000000000000000000000001000000000000"
        "0"
    ),
    "c60": (
        "0x80000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000002000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000020000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000"
    ),
    "glycine_zwitterion": (
        "0x10000000000000000000000000400000000000080000000020000000002000"
        "0000000000000000000000000000000000000000001000000000000000080000"
        "0000000000000000000002000000000000000000000000000000000000000000"
        "0000000000000000000000000600000000000000000000400000000000000000"
        "0000000000000000000000000020000000000000800000000000000000000000"
        "0040000000000002000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000"
    ),
    "tryptophan": (
        "0x40000000000000000000000000000000000000000001000200000000000000"
        "0000000000000000008000000080000000000000200002002000000000000040"
        "0000000000080000000000000001000000000000000080001000000000000000"
        "0005000000008000010000020000000000000000000000000000000000000080"
        "0000010000800000004000000000000440100000000010004000000000000000"
        "0000000000000000000000100008000100000000000000000000000000000000"
        "2000000004000004000000000000000000000000000000000000000000000000"
        "00000000000000000000000000000000001000000008080000000000000"
    ),
}


PINNED_SMILES = {
    "aspirin": "CC(=O)Oc1ccccc1C(=O)O",
    "caffeine": "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "c60": C60,
    "glycine_zwitterion": "[NH3+]CC(=O)[O-]",
    "tryptophan": "NC(Cc1c[nH]c2ccccc12)C(=O)O",
}


@pytest.mark.parametrize("name", sorted(PINNED_PATH_FP))
def test_path_fp_pinned_bits(name):
    assert hex(path_fp(parse_smiles(PINNED_SMILES[name])).bits) == PINNED_PATH_FP[name]


@pytest.mark.parametrize("name", sorted(PINNED_MORGAN_FP))
def test_morgan_fp_pinned_bits(name):
    assert hex(morgan_fp(parse_smiles(PINNED_SMILES[name])).bits) == PINNED_MORGAN_FP[name]


@pytest.mark.parametrize("pred, ref", [("OCC", "[OH]CC"), ("C[C@H](N)O", "CC(N)O")])
def test_exact_matches_fingerprint_alike(pred, ref):
    a, b = parse_smiles(pred), parse_smiles(ref)
    assert exact_match_graphs(a, b)
    assert tanimoto(path_fp(a), path_fp(b)) == 1.0
    assert tanimoto(morgan_fp(a), morgan_fp(b)) == 1.0
