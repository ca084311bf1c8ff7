"""A ratchet on the options of the public API.

Every settable value with a default is a configuration that the tests have to
cover.  This test counts them in the top-level ``maghardy`` namespace, so a
new option has to raise ``MAX_OPTIONS`` in review, and a removed one should
lower it.
"""

import dataclasses
import inspect
import types

import maghardy

MAX_OPTIONS = 43


def _defaults(qualname, fn):
    return [
        f"{qualname}({p.name})"
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]


def settable_values(namespace):
    """Parameters with a default of the public functions, init fields with a
    default of the dataclasses, and parameters with a default of the public
    methods and classmethods each class defines."""
    found = []
    for name in sorted(n for n in dir(namespace) if not n.startswith("_")):
        obj = getattr(namespace, name)
        if inspect.isfunction(obj):
            found += _defaults(name, obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found += [
                    f"{name}.{f.name}"
                    for f in dataclasses.fields(obj)
                    if f.init
                    and (
                        f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                    )
                ]
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    found += _defaults(f"{name}.{attr}", member)
    return found


def test_settable_values_do_not_grow():
    found = settable_values(maghardy)
    assert len(found) <= MAX_OPTIONS, "\n".join(found)


def test_count_sees_each_kind_of_option():
    def f(x, y=1, *, z=2):
        return x

    @dataclasses.dataclass
    class D:
        a: int
        b: int = 0
        c: list = dataclasses.field(default_factory=list)

    class C:
        def method(self, u, v=0):
            return u

        @classmethod
        def make(cls, w=0):
            return cls()

        def _private(self, s=0):
            return s

    ns = types.SimpleNamespace(f=f, D=D, C=C, _hidden=f)
    assert settable_values(ns) == [
        "C.method(v)", "C.make(w)", "D.b", "D.c", "f(y)", "f(z)"
    ]
