"""The counting rule of ``tools/reachability.py`` on a hand-made module;
running the entry points is the tool's business."""

import ast
import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[2] / "tools" / "reachability.py"
_spec = importlib.util.spec_from_file_location("reachability", _PATH)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

MODULE = ast.parse(textwrap.dedent('''\
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
    '''))


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
