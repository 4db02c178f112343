"""Plain records: the equality, hash, repr and validation of every record
class, as the package's documents, warnings and callers rely on them."""

import inspect
import math

import pytest

import wellpoles  # noqa: F401  (loads every module that defines a record)
from wellpoles._record import Record
from wellpoles.chart import (
    ChartWarning,
    CriticalDepth,
    NearContact,
    PoleChart,
    SweepEntry,
    SweepResult,
    SweepTransition,
    WorkingWindow,
)
from wellpoles.config import RunConfig
from wellpoles.rootfinder import Pole
from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec, SMatrixValue
from wellpoles.trajectory import Closure, ClosureKind, CollisionEvent, ExitReason, Trajectory

_COUPLING = ComplexCoupling(0.0)
_POLE = Pole(1j, Channel.PLUS, _COUPLING, 1, 1e-14, 1.5)
_CLOSURE = Closure(ClosureKind.OPEN, ExitReason.ALPHA_CAP)
_CRITICAL = CriticalDepth(1.25, -1j / 1.5, Channel.PLUS, True, 1, 2)


def _trajectory():
    return Trajectory(_POLE, [0.0, 0.5], [1j, 0.1 + 1j], [(0, 1j)], _CLOSURE, [_POLE])


def _entry():
    return SweepEntry(1.0, 1.0, False, {"open": 1}, [1j], [ChartWarning("a", "b")])


# (class, fields in order as a factory of fresh values, one field changed)
RECORDS = [
    (PotentialSpec, lambda: {"m": 2.0, "a": 1.0, "U": 3.0}, ("U", 4.0)),
    (ComplexCoupling, lambda: {"alpha": 0.5}, ("alpha", -0.5)),
    (SMatrixValue, lambda: {"k": 1 + 0.5j, "s11": 0.3j, "s12": 0.9 + 0j}, ("s12", 0.8 + 0j)),
    (Pole, lambda: {"q": 1j, "channel": Channel.PLUS, "coupling": _COUPLING,
                    "multiplicity": 1, "residual": 1e-14, "a": 1.5}, ("multiplicity", 2)),
    (RunConfig, lambda: {"m": 2.0, "a": 1.5, "U": 1.0, "channel": "minus", "gamma": -1,
                         "index": 2, "n": 1, "depths": (0.5, 1.0), "samples": 50, "seed": 3,
                         "certify": False, "out": "o.json", "format": "csv", "svg": None},
     ("svg", "c.svg")),
    (Closure, lambda: {"kind": ClosureKind.OPEN, "reason": ExitReason.K_WINDOW},
     ("reason", None)),
    (CollisionEvent, lambda: {"alpha": 0.0, "k": -1j,
                              "branches": (("resonance_side", 0.1 - 1j),)}, ("alpha", math.pi)),
    (Trajectory, lambda: {"seed": _POLE, "alphas": [0.0, 0.5], "ks": [1j, 0.1 + 1j],
                          "anchors": [(0, 1j)], "closure": _CLOSURE, "merged_seeds": []},
     ("merged_seeds", [_POLE])),
    (WorkingWindow, lambda: {"re_max": 5.0, "im_min": -2.0, "im_max": 3.0}, ("im_max", 4.0)),
    (ChartWarning, lambda: {"code": "incomplete", "message": "short by 1"}, ("code", "stall")),
    (NearContact, lambda: {"alpha_index": 2, "k_first": 1 + 1j, "k_second": 1.1 + 1j,
                           "distance": 0.1}, ("alpha_index", 3)),
    (PoleChart, lambda: {"spec": PotentialSpec(), "channel": Channel.PLUS, "seeds": [_POLE],
                         "trajectories": [_trajectory()], "collisions": [], "warnings": [],
                         "completeness": {"complete": True}}, ("completeness", None)),
    (CriticalDepth, lambda: {"U": 1.25, "k": -1j / 1.5, "channel": Channel.PLUS,
                             "attractive": True, "index": 1, "pair_count": 2},
     ("pair_count", None)),
    (SweepEntry, lambda: {"U_requested": 1.0, "U_used": 1.0 + 1e-9, "nudged": True,
                          "topology": {"open": 1}, "attractive_poles": [1j],
                          "warnings": [ChartWarning("a", "b")]}, ("nudged", False)),
    (SweepTransition, lambda: {"u_below": 1.0, "u_above": 2.0, "critical": _CRITICAL},
     ("critical", None)),
    (SweepResult, lambda: {"channel": Channel.MINUS, "entries": [_entry()],
                           "transitions": []}, ("entries", [])),
]


def test_every_record_class_is_listed():
    assert {cls for cls, _, _ in RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls,values,change", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_equality_hash_and_repr(cls, values, change):
    fields = values()
    record = cls(**fields)
    assert cls.__slots__ == tuple(fields)
    assert not hasattr(record, "__dict__")
    # positional arguments go in field order, as keywords do
    assert cls(*values().values()) == record

    same = cls(**values())
    assert same == record and not same != record
    if not any(isinstance(v, (list, dict)) for v in fields.values()):
        assert hash(same) == hash(record)
    name, value = change
    assert cls(**dict(values(), **{name: value})) != record
    # equality is by type as well as by fields
    assert record != tuple(fields.values())

    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"


def test_each_trajectory_gets_its_own_merged_seeds():
    first = Trajectory(_POLE, [0.0], [1j], [(0, 1j)], _CLOSURE)
    second = Trajectory(_POLE, [0.0], [1j], [(0, 1j)], _CLOSURE)
    assert first.merged_seeds == [] and first.merged_seeds is not second.merged_seeds
    first.merged_seeds.append(_POLE)
    assert second.merged_seeds == []


def test_collision_kind_is_a_class_constant():
    event = CollisionEvent(0.0, -1j, (("resonance_side", 0.1 - 1j),))
    assert event.kind == CollisionEvent.kind == "axis_pair_to_plane_pair"
    assert "kind" not in CollisionEvent.__slots__
    assert repr(event) == ("CollisionEvent(alpha=0.0, k=(-0-1j), "
                           "branches=(('resonance_side', (0.1-1j)),))")
    assert event == CollisionEvent(0.0, -1j, (("resonance_side", 0.1 - 1j),))


@pytest.mark.parametrize("make,message", [
    (lambda: PotentialSpec(m=0), "mass must be positive and finite, got 0"),
    (lambda: PotentialSpec(a=math.inf), "half-width must be positive and finite, got inf"),
    (lambda: PotentialSpec(U=-1), "depth must be nonnegative and finite, got -1"),
    (lambda: PotentialSpec(m=1, a=1, U=1e9),
     "strength c = a*sqrt(2 m U) = 44721.4 exceeds its limit 10000 at m=1, a=1, U=1000000000.0"),
    (lambda: ComplexCoupling(math.nan), "coupling phase must be finite, got nan"),
    (lambda: Pole(1j, Channel.PLUS, _COUPLING, 3, 0.0, 1.0), "multiplicity must be 1 or 2, got 3"),
    (lambda: RunConfig(m="1"), "config key 'm' must be float, got '1'"),
    (lambda: RunConfig(certify=1), "config key 'certify' must be bool, got 1"),
    (lambda: RunConfig(depths=(1, "a")),
     "config key 'depths' must be tuple[float, ...], got (1, 'a')"),
    (lambda: RunConfig(out=3), "config key 'out' must be str | None, got 3"),
    (lambda: RunConfig(m=-1.0), "mass must be positive and finite, got -1.0"),
    (lambda: RunConfig(U=-1.0), "depth must be nonnegative and finite, got -1.0"),
    (lambda: RunConfig(m=math.nan), "mass must be positive and finite, got nan"),
    (lambda: RunConfig(a=math.nan), "half-width must be positive and finite, got nan"),
    (lambda: RunConfig(U=math.nan), "depth must be nonnegative and finite, got nan"),
    (lambda: RunConfig(channel="x"), "unknown channel 'x'"),
    (lambda: RunConfig(gamma=2), "gamma selects a real coupling, +1 or -1"),
    (lambda: RunConfig(format="xml"), "unknown format 'xml'"),
    (lambda: RunConfig(samples=0), "samples must be at least 1"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_run_config_keys_are_named_keywords():
    params = inspect.signature(RunConfig).parameters
    assert tuple(params) == RunConfig.__slots__
    assert params["samples"].default == 200 and params["svg"].default is None
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        RunConfig(bogus=1)
