"""The counting rule of ``tools/reachability.py`` on a hand-made module;
running the entry points is the tool's business."""

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "reachability.py"
_spec = importlib.util.spec_from_file_location("reachability", _PATH)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

SOURCE = textwrap.dedent('''\
    import functools


    @functools.cache
    def decorated():
        def nested():
            pass


    class Built:
        def __init__(self):
            pass

        @property
        def unread(self):
            return 1


    class Never:
        def __init__(self):
            pass

        def method(self):
            pass


    class Data:
        def unused(self):
            pass


    class Empty:
        pass
    ''')
MODULE = ast.parse(SOURCE)


def test_a_decorated_definition_starts_at_its_first_decorator():
    function = MODULE.body[1]
    assert (function.lineno, reachability.first_line(function)) == (5, 4)


def test_outermost_unreached_definitions():
    # Entered: decorated() (line 4) and Built.__init__ (line 11).
    spans = reachability.unreached(MODULE, {4, 11})
    assert spans == [
        (6, 7, "decorated.nested", 1),
        (14, 16, "Built.unread", 1),
        # A class with its own __init__ and nothing run is one span ...
        (19, 24, "Never", 2),
        # ... one without may have been built unseen: its methods only.
        (28, 29, "Data.unused", 1),
    ]


def test_an_unreached_function_hides_what_it_nests():
    assert reachability.unreached(MODULE, {11})[0] == (4, 7, "decorated", 2)


# -- the ratchet: the unreached list against tools/reachability_allow.txt --

PATH = "src/repro/m.py"
ALLOWED = reachability.parse_allowlist(textwrap.dedent('''\
    # nested helpers
    src/repro/m.py::decorated.nested
    # the rest
    src/repro/m.py::Built.unread
    src/repro/m.py::Never
    src/repro/m.py::Data.unused
    '''))


def verdict(source, *ran, allowed=ALLOWED):
    """The ratchet's complaints about ``source`` when only the functions
    named in ``ran`` were entered."""
    module = ast.parse(source)
    first = {name: line for line, _, name in reachability.definitions(module)}
    spans = reachability.unreached(module, {first[name] for name in ran})
    return reachability.ratchet(
        [f"{PATH}::{span[2]}" for span in spans],
        {f"{PATH}::{name}" for name in reachability.qualnames(module)},
        allowed,
    )


RAN = ("decorated", "Built.__init__")


def test_the_allowlist_keys_each_entry_to_its_reason():
    assert ALLOWED[f"{PATH}::decorated.nested"] == "nested helpers"
    assert ALLOWED[f"{PATH}::Never"] == "the rest"


def test_an_agreeing_list_passes():
    assert verdict(SOURCE, *RAN) == []


def test_an_unlisted_unreached_definition_fails_and_is_named():
    allowed = {k: v for k, v in ALLOWED.items() if not k.endswith("Data.unused")}
    assert verdict(SOURCE, *RAN, allowed=allowed) == [
        f"unreached but not allowlisted: {PATH}::Data.unused",
    ]


def test_a_listed_definition_that_is_now_reached_fails():
    assert verdict(SOURCE, *RAN, "Data.unused") == [
        f"allowlisted but reached: {PATH}::Data.unused",
    ]


def test_a_listed_definition_that_is_gone_fails():
    renamed = SOURCE.replace("def unused(self)", "def renamed(self)")
    assert verdict(renamed, *RAN) == [
        f"unreached but not allowlisted: {PATH}::Data.renamed",
        f"allowlisted but gone: {PATH}::Data.unused",
    ]


def test_a_line_shift_changes_nothing():
    assert verdict("\n" * 7 + SOURCE, *RAN) == []


def test_an_entry_needs_a_reason_header():
    with pytest.raises(ValueError, match="reason header"):
        reachability.parse_allowlist(f"{PATH}::f\n")


def test_every_allowlisted_definition_still_exists():
    """The gone half of the ratchet, without running the entry points."""
    root = _PATH.parents[1]
    defined: dict[str, set[str]] = {}
    for entry in reachability.parse_allowlist(reachability.ALLOWLIST.read_text()):
        path, name = entry.split("::")
        if path not in defined:
            defined[path] = reachability.qualnames(ast.parse((root / path).read_text()))
        assert name in defined[path], f"allowlisted but gone: {entry}"
