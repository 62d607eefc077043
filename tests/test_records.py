from __future__ import annotations

import dataclasses
import importlib
import inspect
import types
import typing
from pathlib import Path

import pytest

from motoguard import core, nmea

REPO_ROOT = Path(__file__).resolve().parent.parent
MODULES = [importlib.import_module(f"motoguard.{path.stem}")
           for path in sorted((REPO_ROOT / "src" / "motoguard").glob("*.py"))
           if path.stem not in ("__init__", "__main__")]


def unslotted_records(module: types.ModuleType) -> list[str]:
    """Qualified names of the frozen records a module defines without
    __slots__ of their own, so that each object is two allocations."""
    return [f"{module.__name__}.{name}" for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and issubclass(obj, core.Record) and "__slots__" not in vars(obj)]


def test_every_frozen_record_is_slotted() -> None:
    found = {name for module in MODULES for name in unslotted_records(module)}
    assert found == set()


def test_the_slot_check_sees_only_unslotted_records() -> None:
    module = types.ModuleType("fake")
    source = ("from dataclasses import dataclass\n"
              "from motoguard.core import Record\n"
              "class Bare(Record):\n    pass\n"
              "class Fielded(Record):\n    x: int\n"
              "class Slotted(Record):\n    __slots__ = ()\n"
              "@dataclass\nclass Mutable:\n    x: int\n"
              "class Plain:\n    pass\n")
    exec(compile(source, "fake", "exec", dont_inherit=True), vars(module))
    assert unslotted_records(module) == ["fake.Bare"]


# the frozen records, and the mutable ones, which subclass core.MutableRecord
RECORDS = {"GeoPoint", "LidarRange", "MagField", "PirMotion", "GasReading", "Tilt", "GpsFix",
           "Ignition", "Auth", "SupplyVoltage", "SensorEvent", "Alert", "Buzzer",
           "IgnitionInhibit", "SolenoidLock", "SmsSend", "ActuatorCommand", "ModeChange",
           "PendingSms", "RouterState", "Trigger", "CollisionState", "MagState", "CrashState",
           "TheftState", "ExpectedLabel", "ConfusionMatrix", "RmcData", "ControllerConfig"}
MUTABLE_RECORDS = {"ControllerState", "Scenario", "EventLog", "CaseResult"}


def test_every_class_with_fields_is_a_record_and_none_is_a_dataclass() -> None:
    classes = [obj for module in MODULES for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__]
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == []
    with_fields = {cls.__name__ for cls in classes if vars(cls).get("__annotations__")}
    records = {cls.__name__ for cls in classes
               if issubclass(cls, core.Record) and "__match_args__" in vars(cls)}
    mutable = {cls.__name__ for cls in classes if issubclass(cls, core.MutableRecord)
               and cls is not core.MutableRecord}
    assert records == with_fields == RECORDS | MUTABLE_RECORDS and mutable == MUTABLE_RECORDS
    for cls in classes:
        if cls.__name__ in records:
            # one __init__ per class, with the fields as its parameters
            init = vars(cls)["__init__"]
            assert init.__code__.co_varnames[1:init.__code__.co_argcount] == cls.__match_args__
            assert not init.__code__.co_flags & inspect.CO_VARARGS


def test_every_payload_field_is_checked_by_its_rule_alone() -> None:
    # a field with no _FIELD_RULES row, or a payload class with a __post_init__
    # of its own, would put a second copy of some contract beside the table
    payloads = [core.GeoPoint, *typing.get_args(core.Payload)]
    assert len(payloads) == 10
    for cls in payloads:
        assert [name for name in cls.__match_args__ if name not in core._FIELD_RULES] == []
        assert cls._rows == tuple((name, *core._FIELD_RULES[name]) for name in cls.__match_args__)
        assert "__post_init__" not in vars(cls)
        assert cls.__post_init__ is core._RuleChecked.__post_init__


# every class that event_from_record, parse_rmc or to_gps_fix builds directly
DIRECTLY_BUILT = [*typing.get_args(core.Payload), core.GeoPoint, core.SensorEvent, nmea.RmcData]


@pytest.mark.parametrize("cls", DIRECTLY_BUILT, ids=lambda cls: cls.__name__)
def test_slot_setters_cover_every_field_in_order(cls: type) -> None:
    # every build takes its setters from the class's table, so these are
    # the stores it can make: one per field, each into that class's own slot
    setters = cls._setters
    assert [(s.__self__.__objclass__, s.__self__.__name__) for s in setters] == \
        [(cls, name) for name in cls.__match_args__]
    assert all(type(s.__self__) is types.MemberDescriptorType for s in setters)


class _ReadsSpy(dict):
    """A record that lists the keys read from it by subscript."""

    def __init__(self, record: dict):
        super().__init__(record)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


def test_each_tag_has_one_decoder_row_whose_direct_decoder_reads_its_fields() -> None:
    assert list(core._DECODERS) == list(core._SENSOR_TAGS)
    for tag, cls in core._SENSOR_TAGS.items():
        names, keys = core._DECODERS[tag]
        # a well-formed record of the tag, each number a different value
        record = _ReadsSpy({"t_ms": 5, "sensor": tag} | {
            name: True if core._FIELD_RULES[name][0] is bool else i + 0.5
            for i, name in enumerate(names)})
        assert record.keys() == keys
        (event,) = core.decode_records([record], 0)
        # the tag's branch of the kernel reads the tag, t_ms and exactly the
        # fields the checked entry names, in order, and stores each value in
        # its own field of its tag's payload class
        assert record.read == ["sensor", "t_ms", *names]
        assert type(event.payload) is cls and core.event_to_record(event) == record
