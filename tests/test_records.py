from __future__ import annotations

import dataclasses
import importlib
import types
import typing
from pathlib import Path

import pytest

from motoguard import core, nmea

REPO_ROOT = Path(__file__).resolve().parent.parent
MODULES = [importlib.import_module(f"motoguard.{path.stem}")
           for path in sorted((REPO_ROOT / "src" / "motoguard").glob("*.py"))
           if path.stem not in ("__init__", "__main__")]


def unslotted_frozen_dataclasses(module: types.ModuleType) -> list[str]:
    """Qualified names of the frozen dataclasses a module defines without
    __slots__ of their own, so that each object is two allocations."""
    return [f"{module.__name__}.{name}" for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen
            and "__slots__" not in vars(obj)]


def test_every_frozen_record_is_slotted() -> None:
    found = {name for module in MODULES for name in unslotted_frozen_dataclasses(module)}
    assert found == set()


def test_the_slot_check_sees_only_unslotted_frozen_dataclasses() -> None:
    module = types.ModuleType("fake")
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass Bare:\n    x: int\n"
              "@dataclass(frozen=True, slots=True)\nclass Slotted:\n    x: int\n"
              "@dataclass\nclass Mutable:\n    x: int\n"
              "class Plain:\n    pass\n")
    exec(compile(source, "fake", "exec", dont_inherit=True), vars(module))
    assert unslotted_frozen_dataclasses(module) == ["fake.Bare"]


def test_every_payload_field_is_checked_by_its_rule_alone() -> None:
    # a field with no _FIELD_RULES row, or a payload class with a __post_init__
    # of its own, would put a second copy of some contract beside the table
    payloads = [core.GeoPoint, *typing.get_args(core.Payload)]
    assert len(payloads) == 10
    for cls in payloads:
        assert [f.name for f in dataclasses.fields(cls) if f.name not in core._FIELD_RULES] == []
        assert cls._rows == tuple((f.name, *core._FIELD_RULES[f.name])
                                  for f in dataclasses.fields(cls))
        assert "__post_init__" not in vars(cls)
        assert cls.__post_init__ is core._RuleChecked.__post_init__


# every class that event_from_record, parse_rmc or to_gps_fix builds directly
DIRECTLY_BUILT = [*typing.get_args(core.Payload), core.GeoPoint, core.SensorEvent, nmea.RmcData]


@pytest.mark.parametrize("cls", DIRECTLY_BUILT, ids=lambda cls: cls.__name__)
def test_slot_setters_cover_every_field_in_order(cls: type) -> None:
    # every direct build takes its setters from _slot_setters, so these are
    # the stores it can make: one per field, each into that class's own slot
    setters = core._slot_setters(cls)
    assert [(s.__self__.__objclass__, s.__self__.__name__) for s in setters] == \
        [(cls, f.name) for f in dataclasses.fields(cls)]
    assert all(type(s.__self__) is types.MemberDescriptorType for s in setters)


def test_each_direct_row_sets_the_field_it_reads() -> None:
    rows = [(cls, name, setter) for cls, name, setter, *_ in core._ONE_FIELD.values()]
    rows += [(cls, name, setter) for cls, table in ((core.GasReading, core._GAS_ROWS),
                                                    (core.GeoPoint, core._POINT_ROWS),
                                                    (core.GpsFix, core._FIX_ROWS))
             for name, setter, *_ in table]
    assert [(s.__self__.__objclass__, s.__self__.__name__) for _, _, s in rows] == \
        [(cls, name) for cls, name, _ in rows]
    # together the rows read every field of every record
    assert sorted(name for _, name, _ in rows) == sorted(
        name for tag in core._SENSOR_TAGS for name in core._DECODERS[tag][1])
