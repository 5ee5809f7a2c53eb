"""The knob-set declaration (:mod:`repro.knobs`) and what reads it.

FaultProfile, MembershipConfig and ShardConfig declare each field's kind
once; construction, ``with_value`` and the shrinker's steps all read
that declaration.  The per-config kind tables, setters, validators and
shrink-step generators it replaced are kept here as oracles, and the
shrink candidates and the JSON of every config they produce are pinned
by digests taken from that implementation, over specs drawn by a frozen
copy of the knob-mutation catalogue the fuzzer once used.
"""

import dataclasses
import hashlib
import json
import math
import pickle
from dataclasses import asdict, replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.spec import SCENARIO_MATRICES, TrialSpec
from repro.faults.plan import (
    DEFAULT_CHAOS_PROFILE,
    DEFAULT_CHURN_PROFILE,
    FaultProfile,
)
from repro.fuzz.shrink import _EPSILON, _candidates
from repro.knobs import Kind
from repro.membership.config import MembershipConfig
from repro.observability import load_trace, record_trial, replay_trace
from repro.sharding.ring import ShardConfig

CONFIGS = (FaultProfile, MembershipConfig, ShardConfig)
KNOBS = [(cls, name, kind) for cls in CONFIGS for name, kind in cls.knobs()]
KNOB_IDS = [f"{cls.__name__}.{name}" for cls, name, _ in KNOBS]
REALS = [(cls, name) for cls, name, kind in KNOBS if kind.cast not in (int, str)]
COUNTS = [(cls, name) for cls, name, kind in KNOBS if kind.cast is int]


# ------------------------------------------------------------- oracles
# What each config carried by hand before its fields declared kinds.

OLD_PROFILE_KINDS = dict(
    ce_crash_rate="rate", ce_mean_repair="mean",
    dm_crash_rate="rate", dm_mean_repair="mean",
    ad_crash_rate="rate", ad_mean_repair="mean",
    front_outage_rate="rate", front_mean_outage="mean",
    back_outage_rate="rate", back_mean_outage="mean",
    burst_good_to_bad="prob", burst_bad_to_good="prob",
    burst_loss_good="prob", burst_loss_bad="prob",
    duplicate_prob="prob", max_duplicates="count",
    delay_spike_rate="rate", delay_spike_mean="mean",
    delay_spike_factor="factor",
)
OLD_MEMBERSHIP_KINDS = dict(
    heartbeat_interval="interval", heartbeat_delay="mean",
    detection_timeout="mean", suspicion_threshold="count",
    catchup_latency="mean", retry_backoff="mean", catchup_source="choice",
)
OLD_CATCHUP_SOURCES = ("peer-then-log", "peer", "log", "none")
#: The values each knob's mutator drew, straddling the regimes that
#: matter over a run horizon of a few hundred time units.
_DELAYS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
OLD_TEMPLATES = {
    **{
        name: dict(
            rate=(0.0, 0.002, 0.004, 0.008, 0.016, 0.03),
            mean=(0.0, 10.0, 25.0, 40.0, 80.0),
            prob=(0.0, 0.05, 0.15, 0.4, 0.8),
            factor=(1.0, 2.0, 4.0, 6.0, 10.0),
            count=(1, 2, 3),
        )[kind]
        for name, kind in OLD_PROFILE_KINDS.items()
    },
    "heartbeat_interval": (1.0, 2.5, 5.0, 10.0, 20.0),
    "heartbeat_delay": _DELAYS,
    "detection_timeout": _DELAYS,
    "suspicion_threshold": (1, 2, 3),
    "catchup_latency": _DELAYS,
    "retry_backoff": _DELAYS,
    "catchup_source": OLD_CATCHUP_SOURCES,
    "shards": (1, 2, 3, 4, 8),
}


def old_profile_identity(name):
    if name in ("delay_spike_factor", "max_duplicates", "burst_bad_to_good"):
        return 1
    return 0


def old_default(cls, name):
    return {f.name: f.default for f in dataclasses.fields(cls)}[name]


def old_clamp(cls, name, value):
    """The three hand-written ``with_value`` bodies."""
    if cls is FaultProfile:
        kind = OLD_PROFILE_KINDS[name]
        if kind == "prob":
            return min(max(value, 0.0), 1.0)
        if kind == "factor":
            return max(value, 1.0)
        if kind == "count":
            return max(int(value), 1)
        return max(value, 0.0)
    if cls is MembershipConfig:
        kind = OLD_MEMBERSHIP_KINDS[name]
        if kind == "interval":
            return max(float(value), 1e-3)
        if kind == "count":
            return max(int(value), 1)
        if kind == "choice":
            return str(value)
        return max(float(value), 0.0)
    return max(int(value), 1)


def old_with_value(config, name, value):
    return replace(config, **{name: old_clamp(type(config), name, value)})


def old_accepts(cls, name, value):
    """The three hand-written ``__post_init__`` range checks."""
    if cls is FaultProfile:
        return not value < 0
    if cls is MembershipConfig:
        if name == "catchup_source":
            return value in OLD_CATCHUP_SOURCES
        if name == "suspicion_threshold":
            return not value < 1
        if not math.isfinite(value):
            return False
        return value > 0 if name == "heartbeat_interval" else not value < 0
    return not value < 1


def old_profile_steps(spec):
    profile = spec.faults
    if profile is None:
        return
    for name in OLD_PROFILE_KINDS:
        value = getattr(profile, name)
        identity = old_profile_identity(name)
        if abs(value - identity) < _EPSILON:
            continue
        yield replace(spec, faults=old_with_value(profile, name, identity).or_none())
        if OLD_PROFILE_KINDS[name] == "count":
            halved = value - 1
        else:
            halved = identity + (value - identity) / 2
            if abs(halved - identity) < _EPSILON:
                continue
        yield replace(spec, faults=old_with_value(profile, name, halved).or_none())


def old_membership_steps(spec):
    config = spec.membership
    if config is None:
        return
    yield replace(spec, membership=None)
    for name in OLD_MEMBERSHIP_KINDS:
        default = old_default(MembershipConfig, name)
        if getattr(config, name) == default:
            continue
        yield replace(spec, membership=old_with_value(config, name, default))


def old_candidates(spec, min_updates):
    if spec.n_updates > min_updates:
        yield replace(spec, n_updates=spec.n_updates - 1)
    if spec.replication > 1:
        yield replace(spec, replication=spec.replication - 1)
    if spec.front_loss is None:
        yield replace(spec, front_loss=0.0)
    elif spec.front_loss > _EPSILON:
        yield replace(spec, front_loss=0.0)
        halved = spec.front_loss / 2
        if halved > _EPSILON:
            yield replace(spec, front_loss=halved)
    yield from old_profile_steps(spec)
    yield from old_membership_steps(spec)


# The fuzzer's knob-mutation catalogue, frozen: it draws the 2,000 specs
# the goldens below are taken over.  Limits: 4..40 readings, 1..3 CEs.
_CHAOS_INTENSITIES = (0.25, 0.5, 1.0, 2.0)


def _old_mutate_knob(attr, fresh, spec, rng):
    config = getattr(spec, attr)
    if config is None:
        config = fresh
    name = rng.choice(sorted(dict(config.knobs())))
    config = config.with_value(name, rng.choice(OLD_TEMPLATES[name]))
    if attr == "faults":
        config = config.or_none()
    return replace(spec, **{attr: config})


def _old_mutate_row(spec, rng):
    others = [row for row in sorted(SCENARIO_MATRICES[spec.matrix]) if row != spec.row]
    return replace(spec, row=rng.choice(others)) if others else spec


# The shard and ring mutators set the spec's ring, which specs no longer
# carry.  They still draw what they drew, so the stream does not shift:
# the shard count was chosen among the four templates other than the
# current one (always a template), the ring knob among five.
def _old_mutate_shards(spec, rng):
    rng.choice(OLD_TEMPLATES["shards"][1:])
    return spec


def _old_mutate_ring(spec, rng):
    rng.random()  # which of the two ring knobs ...
    rng.choice(range(5))  # ... and which of its five templates
    return spec


def _old_toggle_membership(spec, rng):
    if spec.membership is not None:
        return replace(spec, membership=None)
    return replace(spec, membership=MembershipConfig())


#: (mutation, weight), in catalogue order.
_OLD_CATALOG = (
    (lambda spec, rng: replace(spec, seed=rng.randrange(1 << 31)), 4),
    (lambda spec, rng: replace(
        spec, seed=abs(spec.seed + rng.choice((-16, -4, -2, -1, 1, 2, 4, 16)))
    ), 4),
    (lambda spec, rng: _old_mutate_knob("faults", FaultProfile(), spec, rng), 4),
    (lambda spec, rng: replace(
        spec,
        n_updates=min(max(spec.n_updates + rng.choice((-6, -3, -1, 1, 3, 6)), 4), 40),
    ), 3),
    (lambda spec, rng: _old_mutate_knob(
        "membership", MembershipConfig(), spec, rng
    ), 3),
    (lambda spec, rng: replace(
        spec, front_loss=rng.choice((None, 0.0, 0.1, 0.3, 0.5, 0.7))
    ), 2),
    (_old_mutate_row, 2),
    (lambda spec, rng: replace(
        spec, faults=DEFAULT_CHAOS_PROFILE.scaled(rng.choice(_CHAOS_INTENSITIES))
    ), 1),
    (lambda spec, rng: replace(
        spec,
        faults=DEFAULT_CHURN_PROFILE.scaled(rng.choice(_CHAOS_INTENSITIES)),
        membership=MembershipConfig(),
    ), 1),
    (lambda spec, rng: replace(spec, replication=rng.randint(1, 3)), 1),
    (lambda spec, rng: replace(spec, faults=None), 1),
    (_old_toggle_membership, 1),
    (_old_mutate_shards, 1),
    (_old_mutate_ring, 1),
)
_OLD_MUTATIONS = tuple(m for m, w in _OLD_CATALOG for _ in range(w))


def old_mutate_spec(spec, rng):
    """One child of ``spec``: 1–2 catalogue mutations stacked."""
    for _ in range(rng.randint(1, 2)):
        spec = rng.choice(_OLD_MUTATIONS)(spec, rng)
    return spec


# ---------------------------------------------------------- strategies

def knob_values(cls, name, kind):
    """Values a constructor accepts: the old templates, the inert value
    and values just off it, ints where a witness header carries them, and
    arbitrary in-domain numbers."""
    if kind.cast is str:
        return st.sampled_from(kind.choices)
    inert = cls.inert(name)
    values = st.sampled_from(OLD_TEMPLATES[name]) | st.just(inert)
    if kind.cast is int:
        return values | st.integers(int(kind.least), 9)
    return (
        values
        | st.floats(0.0, 2e-6).map(lambda offset: inert + offset)
        | st.floats(kind.least, 2 * max(OLD_TEMPLATES[name]), exclude_min=kind.strict)
        | st.integers(1 if kind.strict else 0, 3)
    )


def configs(cls):
    optional = {name: knob_values(cls, name, kind) for name, kind in cls.knobs()}
    return st.fixed_dictionaries({}, optional=optional).map(lambda kw: cls(**kw))


specs = st.builds(
    TrialSpec,
    st.just("single"), st.just("aggressive"), st.just("AD-2"),
    st.integers(0, 99), st.integers(2, 30),
    replication=st.integers(1, 3),
    front_loss=st.none() | st.just(0.0) | st.floats(0.0, 0.8),
    faults=st.none() | configs(FaultProfile),
    membership=st.none() | configs(MembershipConfig),
)


def numbers_for(kind):
    if kind.cast is str:
        return st.sampled_from(kind.choices) | st.text(max_size=4)
    return st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 10**6)


# ------------------------------------------------------------- goldens

#: sha256 over ``repr`` of every shrink candidate of 2,000 chained
#: ``old_mutate_spec`` children, and over ``json.dumps(asdict(config))``
#: of the default, chaos, churn and ring configs and every config those
#: specs carry — all taken from the per-config tables and setters the
#: kinds replaced, when specs still carried a ring: the candidates the
#: ring's own steps yielded are dropped, and the ring is projected out of
#: the rest.  ``ShardConfig`` has since lost its two ring-shape fields,
#: so its line is ``{"shards": 1}``; with the old three-field line in its
#: place the config digest is the one the kinds were checked against,
#: 4d77cb95….  ``TrialSpec`` has since lost its identity-set delivery flag
#: (always ``False`` here), so the candidates' reprs no longer carry it;
#: with it spelled back in before ``collect_quality=`` the candidate
#: digest is the one the kinds were checked against, 9d62853b….
CANDIDATES_DIGEST = "3b23d9f3993b8d6cdfb72d7a8f6ee89313e0b91cd52724ae26c8599908df5251"
CONFIG_JSON_DIGEST = "1bbffed9fd92a44e76cf9e52e7f217da67bd1521b9aa8e1957c9ffaee81b88ae"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def children():
    spec = TrialSpec(
        "single", "aggressive", "AD-2", 7, 20, replication=2,
        collect_coverage=True,
    )
    rng = Random("knobs/golden")
    out = []
    for _ in range(2000):
        spec = old_mutate_spec(spec, rng)
        out.append(spec)
    return out


@pytest.fixture(scope="module")
def candidates(children):
    return [c for child in children for c in _candidates(child, 2)]


class TestGoldens:
    def test_shrink_candidates(self, candidates):
        assert len(candidates) == 38990
        assert _digest(map(repr, candidates)) == CANDIDATES_DIGEST

    def test_config_json(self, children, candidates):
        configs = [
            FaultProfile(), DEFAULT_CHAOS_PROFILE, DEFAULT_CHURN_PROFILE,
            MembershipConfig(), ShardConfig(),
        ]
        configs += [
            getattr(spec, attr)
            for spec in children + candidates
            for attr in ("faults", "membership")
            if getattr(spec, attr) is not None
        ]
        lines = (json.dumps(asdict(config)) for config in configs)
        assert _digest(lines) == CONFIG_JSON_DIGEST


# -------------------------------------------------------- differentials

@settings(max_examples=300, deadline=None)
@given(specs, st.integers(2, 6))
def test_candidates_match_the_per_config_step_generators(spec, min_updates):
    new = list(map(repr, _candidates(spec, min_updates)))
    assert new == list(map(repr, old_candidates(spec, min_updates)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_with_value_matches_the_per_config_setters(data):
    cls, name, kind = data.draw(st.sampled_from(KNOBS))
    value = data.draw(numbers_for(kind).filter(
        lambda v: kind.cast is not str or v in kind.choices
    ))
    config = data.draw(configs(cls))
    assert repr(config.with_value(name, value)) == repr(
        old_with_value(config, name, value)
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_domain_is_the_old_one_less_non_integral_counts(data):
    cls, name, kind = data.draw(st.sampled_from(KNOBS))
    value = data.draw(numbers_for(kind))
    integral = kind.cast is not int or value == int(value)
    try:
        cls(**{name: value})
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (old_accepts(cls, name, value) and integral)


# ------------------------------------------------------------- the laws

class TestDeclaration:
    @pytest.mark.parametrize("cls", CONFIGS)
    def test_knobs_cover_exactly_the_fields(self, cls):
        assert [name for name, _ in cls.knobs()] == [
            f.name for f in dataclasses.fields(cls)
        ]
        assert all(isinstance(kind, Kind) for _, kind in cls.knobs())

    @pytest.mark.parametrize(
        "config", [DEFAULT_CHAOS_PROFILE, MembershipConfig(), ShardConfig(shards=3)]
    )
    def test_kinds_add_no_state(self, config):
        names = [f.name for f in dataclasses.fields(config)]
        assert list(asdict(config)) == names
        assert pickle.loads(pickle.dumps(config)) == config
        assert hash(type(config)(**asdict(config))) == hash(config)

    @pytest.mark.parametrize("cls,name,kind", KNOBS, ids=KNOB_IDS)
    def test_inert_round_trips(self, cls, name, kind):
        inert = cls.inert(name)
        stored = getattr(cls().with_value(name, inert), name)
        assert stored == inert and type(stored) is type(inert)

    def test_unknown_knobs_are_key_errors(self):
        with pytest.raises(KeyError):
            ShardConfig().with_value("nope", 1)
        with pytest.raises(KeyError):
            FaultProfile.inert("nope")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_with_value_constructs_and_is_idempotent(data):
    cls, name, kind = data.draw(st.sampled_from(KNOBS))
    value = data.draw(numbers_for(kind).filter(
        lambda v: kind.cast is not str or v in kind.choices
    ))
    config = cls().with_value(name, value)
    assert repr(config.with_value(name, getattr(config, name))) == repr(config)


class TestDomain:
    """A value outside its kind's domain fails at construction, naming
    the field — not later inside a run or a ring."""

    @pytest.mark.parametrize("cls,name", REALS + COUNTS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_rejected(self, cls, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**{name: bad})

    @pytest.mark.parametrize("cls,name", COUNTS)
    def test_non_integral_count_is_rejected(self, cls, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            cls(**{name: 2.5})

    def test_probabilities_above_one_still_construct(self):
        # materialize clamps them, and so does is_clean (it used to hand
        # an unclamped 2 to GilbertElliottParams and raise).
        profile = FaultProfile(burst_good_to_bad=2, duplicate_prob=1.5)
        assert profile.or_none() is profile

    def test_replayed_header_fails_at_spec_construction(self, tmp_path):
        spec = TrialSpec(
            "single", "aggressive", "AD-2", 1, 10,
            faults=FaultProfile(ce_crash_rate=0.01, ce_mean_repair=25.0),
        )
        text = record_trial(spec).to_jsonl()
        assert '"ce_mean_repair":25.0' in text
        path = tmp_path / "trace.jsonl"
        path.write_text(
            text.replace('"ce_mean_repair":25.0', '"ce_mean_repair":Infinity')
        )
        # Not the ZeroDivisionError a run with an infinite repair time hits.
        with pytest.raises(ValueError, match="ce_mean_repair must be finite"):
            replay_trace(load_trace(path))
