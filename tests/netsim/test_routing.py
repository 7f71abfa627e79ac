"""Tests for deterministic ECMP hashing."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.routing import EcmpHasher, FiveTuple


TUPLE = FiveTuple(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=50000, dst_port=4791)


def test_choice_is_deterministic():
    hasher = EcmpHasher(seed=1)
    assert hasher.choose(TUPLE, 8) == hasher.choose(TUPLE, 8)


def test_seed_changes_choices():
    choices = {EcmpHasher(seed=s).choose(TUPLE, 1 << 16) for s in range(20)}
    assert len(choices) > 1


def test_stage_decorrelates():
    hasher = EcmpHasher(seed=1)
    values = {hasher.choose(TUPLE, 1 << 16, stage=f"s{i}") for i in range(20)}
    assert len(values) > 1


def test_choice_in_range():
    hasher = EcmpHasher(seed=3)
    for port in range(49152, 49252):
        ft = FiveTuple(src_ip="a", dst_ip="b", src_port=port, dst_port=4791)
        assert 0 <= hasher.choose(ft, 7) < 7


def test_zero_choices_rejected():
    with pytest.raises(ValueError):
        EcmpHasher().choose(TUPLE, 0)


def test_distribution_roughly_uniform():
    hasher = EcmpHasher(seed=5)
    counts = [0] * 8
    for port in range(49152, 49152 + 4096):
        ft = FiveTuple(src_ip="10.1.2.3", dst_ip="10.4.5.6", src_port=port, dst_port=4791)
        counts[hasher.choose(ft, 8)] += 1
    expected = 4096 / 8
    for count in counts:
        assert abs(count - expected) < expected * 0.25


def _one_shot_digest(seed, five_tuple, stage):
    """The payload layout, hashed in one go: the reference digest."""
    payload = (
        f"{seed}|{stage}|{five_tuple.src_ip}|{five_tuple.dst_ip}"
        f"|{five_tuple.src_port}|{five_tuple.dst_port}|{five_tuple.protocol}"
    ).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@given(
    seed=st.integers(0, 2**32),
    src_ip=st.text(max_size=16),
    dst_ip=st.text(max_size=16),
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    protocol=st.sampled_from([17, 6]),
    stage=st.one_of(
        st.sampled_from(["", "ephemeral", "up:3:1", "down:0:7", "bond:2:5"]),
        st.text(max_size=12),
    ),
)
@settings(max_examples=300, deadline=None)
def test_hash_value_equals_primed_prefix_digest(
    seed, src_ip, dst_ip, src_port, dst_port, protocol, stage
):
    hasher = EcmpHasher(seed=seed)
    ft = FiveTuple(src_ip, dst_ip, src_port, dst_port, protocol)
    primed = hasher.stage_hasher(src_ip, dst_ip, stage).copy()
    primed.update(f"{src_port}|{dst_port}|{protocol}".encode())
    expected = _one_shot_digest(seed, ft, stage)
    assert hasher.hash_value(ft, stage) == expected
    assert int.from_bytes(primed.digest(), "little") == expected
