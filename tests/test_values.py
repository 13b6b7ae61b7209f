"""The value classes: equality, hashing, repr, immutability, pickling and
copying, and a package import that loads no ``dataclasses``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nsmacdonald
from nsmacdonald import Composition, Filling, LatticeConfig
from nsmacdonald.reports import CheckReport

MU = Composition((1, 2))

# each value with its exact repr, an equal value built apart and an unequal one
VALUES = [
    (MU, "Composition(parts=(1, 2))", Composition([1, 2]), Composition((2, 1))),
    (
        Filling(MU, ((1, 1), (2, 2, 1))),
        "Filling(mu=Composition(parts=(1, 2)), columns=((1, 1), (2, 2, 1)))",
        Filling(Composition((1, 2)), ((1, 1), (2, 2, 1))),
        Filling(MU, ((1, 1), (2, 1, 1))),
    ),
    (
        LatticeConfig(((1, 2), (0, 1))),
        "LatticeConfig(columns=((1, 2), (0, 1)))",
        LatticeConfig(((1, 2), (0, 1))),
        LatticeConfig(((1, 2), (1, 0))),
    ),
    (
        CheckReport("cyclic", 3, ["a"], ["b"]),
        "CheckReport(name='cyclic', checked=3, failures=['a'], notes=['b'])",
        CheckReport("cyclic", 3, ["a"], ["b"]),
        CheckReport("cyclic", 4, ["a"], ["b"]),
    ),
]
IDS = ["Composition", "Filling", "LatticeConfig", "CheckReport"]


@pytest.mark.parametrize("value, text, equal, other", VALUES, ids=IDS)
def test_equality_repr_and_copies(value, text, equal, other):
    assert repr(value) == text
    assert value == equal and not value != equal
    assert value != other and value != text
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == text


@pytest.mark.parametrize("value, text, equal, other", VALUES[:3], ids=IDS[:3])
def test_read_only_values_hash_by_fields_and_refuse_assignment(value, text, equal, other):
    assert hash(value) == hash(equal) == hash(pickle.loads(pickle.dumps(value)))
    assert len({value, equal, other}) == 2
    field = type(value).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def test_check_report_is_mutable_unhashable_and_owns_its_lists():
    first, second = CheckReport("a"), CheckReport("b")
    first.fail("x")
    first.note("y")
    first.count(2)
    assert (second.failures, second.notes, second.checked) == ([], [], 0)
    assert first.failures is not second.failures and first.notes is not second.notes
    assert repr(first) == "CheckReport(name='a', checked=2, failures=['x'], notes=['y'])"
    with pytest.raises(TypeError):
        hash(first)


def test_composition_errors_and_hash():
    with pytest.raises(ValueError, match="^composition must have at least one part$"):
        Composition(())
    with pytest.raises(ValueError, match=r"^negative part in \(1, -1\)$"):
        Composition((1, -1))
    # a list is stored as a tuple, hashed as the field tuple (parts,)
    mu = Composition([0, 3])
    assert mu.parts == (0, 3) and hash(mu) == hash(((0, 3),))


def test_filling_checks_its_entries():
    with pytest.raises(ValueError, match="basement entry of column 1 must be 1"):
        Filling(MU, ((2, 1), (2, 2, 1)))
    with pytest.raises(ValueError, match="entries of column 2 must lie in 1..2"):
        Filling(MU, ((1, 1), (2, 3, 1)))


def test_package_import_loads_no_dataclasses():
    # the import is most of a CLI call's start-up: the dataclasses chain
    # (dataclasses, inspect, ast, dis, tokenize) would about double it
    src = str(Path(nsmacdonald.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, nsmacdonald, nsmacdonald.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
