"""Every record against its twin: a @dataclass(frozen=True, slots=True) made
here from the record's fields, defaults and __post_init__. Over the same
arguments the two must construct, compare, hash, print, refuse assignment,
copy, pickle and replace alike, raising the same exception with the same text
where one raises."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import sys
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from motoguard import core
from motoguard.controller import Mode
from motoguard.core import AlertKind, GeoPoint, LidarRange, Severity

from test_records import MODULES, RECORDS

PHONE = "+639171234567"
HERE = GeoPoint(14.5995, 120.9842)
# one accepted argument tuple per record, from which arguments() departs
EXAMPLES = {
    "GeoPoint": (14.5995, 120.9842), "LidarRange": (3.0,), "MagField": (40.0,),
    "PirMotion": (True,), "GasReading": (1.0, 2.0, 3.0), "Tilt": (10.0,),
    "GpsFix": (HERE, 30.0, True), "Ignition": (True,), "Auth": (False,),
    "SupplyVoltage": (24.0,), "SensorEvent": (5, LidarRange(3.0)),
    "Alert": (5, AlertKind.CRASH, Severity.HIGH, "CRASH x"), "Buzzer": (True,),
    "IgnitionInhibit": (False,), "SolenoidLock": (True,), "SmsSend": (PHONE, "hi"),
    "ActuatorCommand": (5, core.Buzzer(on=True)), "ModeChange": (5, Mode.PARKED),
    "PendingSms": (PHONE, "b", Severity.LOW), "RouterState": ({AlertKind.CRASH: 5}, (), 0),
    "Trigger": (AlertKind.THEFT, "THEFT x"), "CollisionState": (1.0, 2, 0.5),
    "MagState": ((1.0,), 2.0, 1), "CrashState": (5, True), "TheftState": (True, HERE, 5, False),
    "ExpectedLabel": (AlertKind.CRASH, 0, 10), "ConfusionMatrix": (1, 2, 3, 4),
    "RmcData": ("123519", "A", HERE, 22.4, 84.4, "230394"),
}
CLASSES = sorted((cls for module in MODULES for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__name__ in RECORDS
                  and cls.__module__ == module.__name__), key=lambda cls: cls.__name__)

# the twins live in a module of their own, so that pickle finds them by name
TWIN_MODULE = types.ModuleType("motoguard_record_twins")
sys.modules[TWIN_MODULE.__name__] = TWIN_MODULE


def make_twin(cls: type) -> type:
    """A frozen, slotted dataclass with cls's name, fields, defaults and checks."""
    fields = []
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    for i, param in enumerate(params):
        if param.default is param.empty:
            fields.append((param.name, object))
        elif param.default is core._FACTORY:
            factory = cls.__init__.__globals__[f"_f{i}"]
            fields.append((param.name, object, dataclasses.field(default_factory=factory)))
        else:
            fields.append((param.name, object, param.default))
    namespace = {name: getattr(cls, name) for name in ("__post_init__", "_rows")
                 if hasattr(cls, name)}
    twin = dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace,
                                      frozen=True, slots=True)
    twin.__module__, twin.__qualname__ = TWIN_MODULE.__name__, cls.__qualname__
    setattr(TWIN_MODULE, cls.__name__, twin)
    return twin


TWINS = {cls: make_twin(cls) for cls in CLASSES}

NAN = math.nan
TOO_LONG = 10 ** 5000  # past the 4300-digit limit of int-to-str conversion
ANY = st.one_of(st.none(), st.booleans(), st.integers(), st.just(TOO_LONG), st.just(NAN),
                st.floats(), st.text(max_size=8), st.sampled_from([*AlertKind, *Severity, *Mode]),
                st.tuples(st.floats(), st.integers()),
                st.dictionaries(st.sampled_from(AlertKind), st.integers(0, 9), max_size=2))


@st.composite
def arguments(draw, cls: type) -> tuple:
    """cls's example arguments, each kept or replaced by an arbitrary value."""
    return tuple(value if draw(st.booleans()) else draw(ANY) for value in EXAMPLES[cls.__name__])


def observe(thunk):
    """thunk's value, or the type and text of what it raised."""
    try:
        return "value", thunk()
    except Exception as exc:  # the exception type and text are part of the contract
        return type(exc), str(exc)


def shown(thunk):
    """observe(thunk), with a value given by its repr, so that a record and
    its twin, two different classes, can compare."""
    return observe(lambda: repr(thunk()))


def copies(obj) -> list:
    """Thunks that copy obj: copy.copy, copy.deepcopy and a pickle round trip
    at each protocol."""
    return [lambda: copy.copy(obj), lambda: copy.deepcopy(obj),
            *(lambda protocol=protocol: pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]


def test_every_record_has_a_twin_and_an_example() -> None:
    assert {cls.__name__ for cls in CLASSES} == RECORDS == set(EXAMPLES)
    for cls in CLASSES:
        assert TWINS[cls].__match_args__ == cls.__match_args__
        assert cls(*EXAMPLES[cls.__name__]).__class__ is cls


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(cls: type, data) -> None:
    twin, names = TWINS[cls], cls.__match_args__
    args = data.draw(arguments(cls), label="args")
    assert shown(lambda: cls(*args)) == shown(lambda: twin(*args))
    keywords = dict(zip(names, args))
    assert shown(lambda: cls(**keywords)) == shown(lambda: twin(**keywords))
    required = sum(1 for field in dataclasses.fields(twin)
                   if field.default is field.default_factory is dataclasses.MISSING)
    assert shown(lambda: cls(*args[:required])) == shown(lambda: twin(*args[:required]))
    made, twin_made = observe(lambda: cls(*args)), observe(lambda: twin(*args))
    if made[0] != "value" or twin_made[0] != "value":
        return
    rec, tw = made[1], twin_made[1]

    assert observe(lambda: hash(rec)) == observe(lambda: hash(tw))
    # another record of the same arguments holds the very same values, an
    # identical nan included
    assert (rec == cls(*args), rec != cls(*args)) == (tw == twin(*args), tw != twin(*args))
    assert (rec == rec, rec != rec) == (tw == tw, tw != tw)
    assert (rec == tw, tw == rec, rec == args) == (False, False, False)
    # a record of another type with the same values is unequal, as in dataclasses
    for other in CLASSES:
        if other is not cls and len(other.__match_args__) == len(names):
            assert observe(lambda: rec == other(*args)) == \
                observe(lambda: tw == TWINS[other](*args))

    for name in names:
        assert observe(lambda: setattr(rec, name, None)) == observe(lambda: setattr(tw, name, None))
        assert observe(lambda: delattr(rec, name)) == observe(lambda: delattr(tw, name))
    # any other name is refused too; the twin raises a TypeError there instead,
    # as its __setattr__ calls super() on the class before slots=True remade it
    assert observe(lambda: setattr(rec, "elsewhere", None)) == \
        (dataclasses.FrozenInstanceError, "cannot assign to field 'elsewhere'")
    assert observe(lambda: delattr(rec, "elsewhere")) == \
        (dataclasses.FrozenInstanceError, "cannot delete field 'elsewhere'")
    assert shown(lambda: rec) == shown(lambda: tw)

    for copy_rec, copy_twin in zip(copies(rec), copies(tw)):
        assert shown(copy_rec) == shown(copy_twin)
        assert observe(lambda: (copy_rec().__class__ is cls, copy_rec() == rec)) == \
            observe(lambda: (copy_twin().__class__ is twin, copy_twin() == tw))

    name = data.draw(st.sampled_from(names), label="replaced")
    value = data.draw(ANY, label="by")
    assert shown(lambda: rec._replace(**{name: value})) == \
        shown(lambda: dataclasses.replace(tw, **{name: value}))


@given(st.sampled_from(CLASSES))
@example(core.Alert)
def test_a_field_past_the_int_digit_limit_fails_repr_as_in_a_dataclass(cls: type) -> None:
    # the int is stored unchecked, so that every record gets one
    args = (TOO_LONG, *EXAMPLES[cls.__name__][1:])
    rec = cls._unchecked(*args)
    twin = TWINS[cls].__new__(TWINS[cls])
    twin.__setstate__(args)
    assert observe(lambda: repr(rec)) == observe(lambda: repr(twin))
    assert observe(lambda: repr(rec))[0] is ValueError
