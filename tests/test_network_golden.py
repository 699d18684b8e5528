"""Golden fixed-seed outputs of the scalar engine, ``run_slush`` and ``run_snow``.

Each case pins the whole ``RunOutcome`` of one configuration, start and
seed as the sha256 of a canonical JSON rendering. The cases cover:

- Slush from a split, a unanimous and a frozen start (the last runs to
  ``phi``);
- both deciding variants under every adversary;
- a balance-keeper run whose partition is rebalanced after flips;
- a minority-push run from an even split, where the tie coin picks the
  pushed color;
- a minority-push run that is unanimous for red and then decides blue, so
  ``unanimity_color`` must be the color held in the round of unanimity.

The digests were recorded while Slush and the deciding variants still had
separate scheduler loops; any refactor of the scalar engine that claims to
be exact must reproduce them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from snowsim.machines import ProtocolParams, Variant
from snowsim.sim import Adversary, NetworkConfig, RunOutcome, run_slush, run_snow


def digest(out: RunOutcome) -> str:
    text = json.dumps(asdict(out), default=lambda color: color.value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


SLUSH_CASES = {
    "split": (
        dict(n=20, params=ProtocolParams(k=4, a=3), phi=100_000, seed=1), 10,
        "f627963589c8da1b7167648ca56e3a4bd5e61f75ce6be21c4915836770c04c69",
    ),
    "unanimous": (
        dict(n=12, params=ProtocolParams(k=3, a=2), phi=100_000, seed=2), 12,
        "c83e925de0a377353c442bd72c96f2e477593b9ce28de9f16da63f5440e81a7e",
    ),
    "frozen": (
        dict(n=4, params=ProtocolParams(k=3, a=3), phi=200, seed=3), 2,
        "c33daaa87635c728e31e406e507499073249bdaba0718e352b8cdee71b9f48e3",
    ),
}

K3 = dict(n=13, b=3, params=ProtocolParams(k=3, a=3, beta=4), phi=20_000, seed=5)
SNOW_CASES = {
    "snowflake-none": (
        Variant.SNOWFLAKE, dict(K3, adversary=Adversary.NONE), 5,
        "53ca368e440145fc286f65e5b68cdc45ce24e04e25248504779e0a8cc32e8507",
    ),
    "snowflake-refuse": (
        Variant.SNOWFLAKE, dict(K3, adversary=Adversary.REFUSE), 5,
        "a038a81f238a0141b257ebe185a9953262fa98149e4352e6cc675357b298dc30",
    ),
    "snowflake-balance-keeper": (
        Variant.SNOWFLAKE, dict(K3, adversary=Adversary.BALANCE_KEEPER), 5,
        "c004fa6159984537366e4a1add5a63132735815a143e67ce1fd864d4cbd26f71",
    ),
    "snowflake-minority-push": (
        Variant.SNOWFLAKE, dict(K3, adversary=Adversary.MINORITY_PUSH), 5,
        "38145f74b35ce5220ed4e92868504cb06b0e0ea149a7d311050728ef3e4fd985",
    ),
    "snowball-none": (
        Variant.SNOWBALL, dict(K3, adversary=Adversary.NONE), 5,
        "0c47d0410e8e2f60f22e5b41ad68776551755531baf5c24336f326d673232c46",
    ),
    "snowball-refuse": (
        Variant.SNOWBALL, dict(K3, adversary=Adversary.REFUSE), 5,
        "20446b9867fe01a9f6aef155d5a27796a4e31f1f906111e6e62097206846d45e",
    ),
    "snowball-balance-keeper": (
        Variant.SNOWBALL, dict(K3, adversary=Adversary.BALANCE_KEEPER), 5,
        "6987d02eaa4262933e412fb543ee912946858232d493f2d707b8147e584552ad",
    ),
    "snowball-minority-push": (
        Variant.SNOWBALL, dict(K3, adversary=Adversary.MINORITY_PUSH), 5,
        "5f1660ec5238f4b595fd1f3e944188711727c8cc7acbbef59dec14cbc06b4b2f",
    ),
    "balance-keeper-rebalances": (
        Variant.SNOWBALL,
        dict(n=13, b=3, params=ProtocolParams(k=3, a=2, beta=6), phi=20_000,
             adversary=Adversary.BALANCE_KEEPER, seed=8),
        4,
        "afd4afa65c391f27013273fdfa2ef4702ad71045eb8563991e162dcfe62c09fa",
    ),
    "moves-after-unanimity": (
        Variant.SNOWFLAKE,
        dict(n=13, b=3, params=ProtocolParams(k=3, a=2, beta=6), phi=20_000,
             adversary=Adversary.MINORITY_PUSH, seed=1),
        5,
        "306f8e47599b7851a051d84a15865ec02a87a3c5808138fc861ecfb75d936094",
    ),
    "minority-push-tie-coin": (
        Variant.SNOWFLAKE,
        dict(n=14, b=2, params=ProtocolParams(k=3, a=2, beta=5), phi=20_000,
             adversary=Adversary.MINORITY_PUSH, seed=6),
        6,
        "16c4486929f9d032cd1fa227127e00c7305bb4220d5acbfa4ac5c2896167d7ad",
    ),
}


@pytest.mark.parametrize("name", sorted(SLUSH_CASES))
def test_slush_outcome_matches_golden_digest(name):
    kw, reds, expected = SLUSH_CASES[name]
    assert digest(run_slush(NetworkConfig(**kw), reds)) == expected


@pytest.mark.parametrize("name", sorted(SNOW_CASES))
def test_snow_outcome_matches_golden_digest(name):
    variant, kw, reds, expected = SNOW_CASES[name]
    assert digest(run_snow(NetworkConfig(**kw), variant, reds)) == expected
