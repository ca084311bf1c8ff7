"""A ratchet on the options of the public API and of the command line.

Every settable value with a default is a configuration that the tests have to
cover.  This test counts them in the top-level ``maghardy`` namespace and
asserts that the count equals ``MAX_OPTIONS``, so a new option has to raise
it in review and a removed one has to lower it.  The flags of the CLI
subcommands are counted the same way against ``MAX_CLI_FLAGS``.
"""

import argparse
import dataclasses
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import maghardy
from maghardy import cli

MAX_OPTIONS = 43
MAX_CLI_FLAGS = 114


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
    assert len(found) == MAX_OPTIONS, (
        f"{len(found)} settable values, MAX_OPTIONS = {MAX_OPTIONS}: set it to the count "
        "(lower it for a removed option; a new one needs review)\n" + "\n".join(found)
    )


def cli_flags(parser):
    """``subcommand --flag`` for each flag a subparser registers, apart from
    the help flags and the global options every subcommand repeats."""
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        f"{name} {flag}"
        for name, sub in subs.choices.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help", "--config", "--out", "--pretty")
    ]


def test_cli_flags_do_not_grow():
    found = cli_flags(cli.build_parser())
    assert len(found) == MAX_CLI_FLAGS, (
        f"{len(found)} CLI flags, MAX_CLI_FLAGS = {MAX_CLI_FLAGS}: set it to the count "
        "(lower it for a removed flag; a new one needs review)\n" + "\n".join(found)
    )


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


# The public names of the namespace, as the eager imports of 0.1.0 gave them.
PUBLIC_NAMES = sorted(
    """
    AharonovBohmWeight BoundValue BumpField CountReport CustomField CustomPotential
    CustomTestFunction CustomWeight FluxAugmentedWeight GaussianWell Grid HardyEstimate
    LevelSet LogLogPowerField LogPowerField LogPowerWeight LogSquaredWeight ModeBump
    ModeOperator OriginProbe Potential RadialField ScaledPotential ShiftedLogWeight StepWell
    SumField SweepResult TailProbe VSigma Weight ZeroField ZeroPotential assemble_mode
    bound_jst check_f_identity count_ladder count_modes count_negative count_total counting
    errors eval_weight fit_loglog_slope flux flux_quadrature grids hardy_constant
    hardy_probe_at_zero infinity_probe lambda_bounds_check level_set log_moment
    mode_truncation phase_integral_count phase_integral_counts phi profiles prufer_count
    qform qform_checked quadform radial_1d_inequality_check select_eta_log
    singularity_class slow_log_weight spectral sweep_exponent v_norm_a
    verify_counting_bound weighted_norm weights
    """.split()
)


def test_namespace_names_are_those_of_the_eager_imports():
    # a fresh interpreter: dir() there lists no module that a test imported
    code = """
import maghardy
print(*sorted(n for n in dir(maghardy) if not n.startswith("_")))
names = {}
exec("from maghardy import *", names)
print(*sorted(n for n in names if not n.startswith("_")))
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    listed, starred = out.stdout.splitlines()
    assert listed.split() == PUBLIC_NAMES
    assert starred.split() == PUBLIC_NAMES


def test_namespace_names_load_their_objects():
    for name in PUBLIC_NAMES:
        obj = getattr(maghardy, name)
        if inspect.ismodule(obj):
            assert obj is sys.modules[f"maghardy.{name}"]
        else:
            assert obj is getattr(sys.modules[obj.__module__], name)
    assert maghardy.count_total is maghardy.counting.count_total
    with pytest.raises(AttributeError, match="no_such_name"):
        maghardy.no_such_name
    with pytest.raises(ImportError):
        from maghardy import no_such_name  # noqa: F401
