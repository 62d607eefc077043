"""Every record against its twin: a @dataclass(frozen=True, slots=True) made
here from the record's fields, defaults and __post_init__, or, for a mutable
record, a plain @dataclass. Over the same arguments the two must construct,
compare, hash, print, copy and pickle alike, raising the same exception with
the same text where one raises. A frozen record must refuse assignment and
replace as its twin does; a mutable one must set and delete its fields as
its twin does, and take a weak reference."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import sys
import types
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from motoguard import core
from motoguard.controller import Mode, ModeChange, RouterState
from motoguard.core import (DEFAULT_CONFIG, AlertKind, GasReading, GeoPoint, GpsFix, LidarRange,
                            SensorEvent, Severity)
from motoguard.detectors import CollisionState, CrashState, MagState, TheftState
from motoguard.harness import ConfusionMatrix, ExpectedLabel

from test_records import MODULES, MUTABLE_RECORDS, RECORDS

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
    "ControllerConfig": DEFAULT_CONFIG._values(),
    "ControllerState": (Mode.RIDING, 5, True, True, GpsFix(HERE, 30.0, True),
                        CollisionState(1.0, 2, 0.5), MagState((1.0,), 2.0, 1), CrashState(5, True),
                        TheftState(True, HERE, 5, False), False, True, 3,
                        GasReading(1.0, 2.0, 3.0), RouterState({AlertKind.CRASH: 5}, (), 0), [], [],
                        [ModeChange(5, Mode.RIDING)]),
    "Scenario": ("case", "a case", {"ttc_warn_s": 1.0}, [SensorEvent(5, LidarRange(3.0))],
                 [ExpectedLabel(AlertKind.CRASH, 0, 10)]),
    "EventLog": ([ModeChange(5, Mode.RIDING)],),
    "CaseResult": ("01", "case", "objective", 3, "crash[0..10]", ConfusionMatrix(1, 2, 3, 4),
                   True, ["missed"], Severity.HIGH),
}


def classes_named(names: set) -> list:
    return sorted((cls for module in MODULES for cls in vars(module).values()
                   if isinstance(cls, type) and cls.__name__ in names
                   and cls.__module__ == module.__name__), key=lambda cls: cls.__name__)


CLASSES, MUTABLE_CLASSES = classes_named(RECORDS), classes_named(MUTABLE_RECORDS)

# the twins live in a module of their own, so that pickle finds them by name
TWIN_MODULE = types.ModuleType("motoguard_record_twins")
sys.modules[TWIN_MODULE.__name__] = TWIN_MODULE


def make_twin(cls: type) -> type:
    """A dataclass with cls's name, fields, defaults and checks: frozen and
    slotted, or, for a mutable record, plain (3.10 has no weakref_slot)."""
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
    frozen = not issubclass(cls, core.MutableRecord)
    twin = dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace,
                                      frozen=frozen, slots=frozen)
    twin.__module__, twin.__qualname__ = TWIN_MODULE.__name__, cls.__qualname__
    setattr(TWIN_MODULE, cls.__name__, twin)
    return twin


TWINS = {cls: make_twin(cls) for cls in CLASSES + MUTABLE_CLASSES}

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
    assert {cls.__name__ for cls in CLASSES} == RECORDS
    assert {cls.__name__ for cls in MUTABLE_CLASSES} == MUTABLE_RECORDS
    assert RECORDS | MUTABLE_RECORDS == set(EXAMPLES)
    for cls in CLASSES + MUTABLE_CLASSES:
        assert TWINS[cls].__match_args__ == cls.__match_args__
        assert cls(*EXAMPLES[cls.__name__]).__class__ is cls


def assert_built_alike(cls: type, args: tuple) -> int:
    """cls and its twin build alike from args by position, by keyword and
    from the required fields alone; returns how many fields are required."""
    twin = TWINS[cls]
    assert shown(lambda: cls(*args)) == shown(lambda: twin(*args))
    keywords = dict(zip(cls.__match_args__, args))
    assert shown(lambda: cls(**keywords)) == shown(lambda: twin(**keywords))
    required = sum(1 for field in dataclasses.fields(twin)
                   if field.default is field.default_factory is dataclasses.MISSING)
    assert shown(lambda: cls(*args[:required])) == shown(lambda: twin(*args[:required]))
    return required


def assert_alike_as_values(cls: type, args: tuple, rec, tw) -> None:
    """rec and tw, a record and its twin built from args, hash, compare,
    print, copy and pickle alike."""
    twin = TWINS[cls]
    assert observe(lambda: hash(rec)) == observe(lambda: hash(tw))
    # another record of the same arguments holds the very same values, an
    # identical nan included
    assert (rec == cls(*args), rec != cls(*args)) == (tw == twin(*args), tw != twin(*args))
    assert (rec == rec, rec != rec) == (tw == tw, tw != tw)
    assert (rec == tw, tw == rec, rec == args) == (False, False, False)
    assert shown(lambda: rec) == shown(lambda: tw)
    for copy_rec, copy_twin in zip(copies(rec), copies(tw)):
        assert shown(copy_rec) == shown(copy_twin)
        assert observe(lambda: (copy_rec().__class__ is cls, copy_rec() == rec)) == \
            observe(lambda: (copy_twin().__class__ is twin, copy_twin() == tw))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(cls: type, data) -> None:
    twin, names = TWINS[cls], cls.__match_args__
    args = data.draw(arguments(cls), label="args")
    assert_built_alike(cls, args)
    made, twin_made = observe(lambda: cls(*args)), observe(lambda: twin(*args))
    if made[0] != "value" or twin_made[0] != "value":
        return
    rec, tw = made[1], twin_made[1]
    assert_alike_as_values(cls, args, rec, tw)
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

    name = data.draw(st.sampled_from(names), label="replaced")
    value = data.draw(ANY, label="by")
    assert shown(lambda: rec._replace(**{name: value})) == \
        shown(lambda: dataclasses.replace(tw, **{name: value}))


@pytest.mark.parametrize("cls", MUTABLE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutable_record_behaves_as_its_dataclass_twin(cls: type, data) -> None:
    twin, names = TWINS[cls], cls.__match_args__
    args = data.draw(arguments(cls), label="args")
    required = assert_built_alike(cls, args)
    if required < len(names):  # each default factory makes a new object per record
        assert getattr(cls(*args[:required]), names[-1]) is not \
            getattr(cls(*args[:required]), names[-1])
    rec, tw = cls(*args), twin(*args)
    assert_alike_as_values(cls, args, rec, tw)
    assert observe(lambda: hash(rec))[0] is TypeError
    assert weakref.ref(rec)() is rec and weakref.ref(tw)() is tw

    name = data.draw(st.sampled_from(names), label="set")
    value = data.draw(ANY, label="to")
    assert observe(lambda: setattr(rec, name, value)) == \
        observe(lambda: setattr(tw, name, value)) == ("value", None)
    assert getattr(rec, name) is value
    assert shown(lambda: rec) == shown(lambda: tw)
    assert (rec == cls(*args), rec == twin(*args)) == (tw == twin(*args), False)
    assert observe(lambda: delattr(rec, name)) == observe(lambda: delattr(tw, name))
    # past a delete the unslotted twin differs (a field with a default reads
    # its class attribute, and an emptied slot's error text varies by Python
    # version), so there the record is held to what @dataclass(slots=True) does:
    # the field is gone, a record still equals itself from 3.13 on, and repr
    # fails on the gap or on an earlier unprintable field
    assert observe(lambda: getattr(rec, name))[0] is AttributeError
    assert observe(lambda: delattr(rec, name))[0] is AttributeError
    assert observe(lambda: rec == rec)[0] == ("value" if sys.version_info >= (3, 13)
                                              else AttributeError)
    assert observe(lambda: repr(rec))[0] in (AttributeError, ValueError)
    # a slotted record takes no other attribute, as @dataclass(slots=True) would
    assert observe(lambda: setattr(rec, "elsewhere", None))[0] is AttributeError


@given(st.sampled_from(CLASSES + MUTABLE_CLASSES))
@example(core.Alert)
@example(core.ControllerConfig)
def test_a_field_past_the_int_digit_limit_fails_repr_as_in_a_dataclass(cls: type) -> None:
    # the int is stored unchecked, so that every record gets one
    args = (TOO_LONG, *EXAMPLES[cls.__name__][1:])
    rec = cls._unchecked(*args)
    twin = TWINS[cls].__new__(TWINS[cls])
    for name, value in zip(cls.__match_args__, args):
        object.__setattr__(twin, name, value)
    assert observe(lambda: repr(rec)) == observe(lambda: repr(twin))
    assert observe(lambda: repr(rec))[0] is ValueError
