"""Property tests of the input boundary: `toepspec run` on any small config,
and `toepspec spectrum` / `toepspec pseudospectrum` on any small set of flags,
end in exit code 0, 1 (configuration) or 2 (numerical), never in a traceback.

The configs vary the scenario, the params (types and values, drawn from each
scenario's defaults), the perturbation fields, the symbol, n and the trial
count.  The flags vary the symbol text, n, the perturbation, the grid and the
level string.  Both stay small (n <= 12, trials <= 2, grids <= 6 x 6) so that
every example runs in well under a second.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from toepspec.cli import main  # noqa: E402
from toepspec.experiments import scenarios  # noqa: E402
from toepspec.matrixgen import MATRIX_KINDS, NOISE_KINDS, PERT_KINDS  # noqa: E402

SCENARIOS = scenarios()
# the perturbation kind a scenario requires, where it requires one
REQUIRED_PERT = {"lsd_exp": "exp", "lsd_superexp": "superexp", "macro": "macro", "radius_law": "poly"}
PERT_FIELD = {"poly": "gamma", "exp": "r", "superexp": "c", "macro": "sigma"}

WRONG_TYPE = st.sampled_from(["x", None, True, [1.0], {"a": 1}])
FLOATS = st.sampled_from([-1.0, 0.0, 1e-3, 0.5, 1.0, 2.5, 1e308])
GRID = st.fixed_dictionaries(
    {
        "re_min": st.sampled_from([-2.0, 0.0, 1.0]),
        "re_max": st.sampled_from([-1.0, 1.0, 2.0]),
        "im_min": st.sampled_from([-2.0, 0.0]),
        "im_max": st.sampled_from([0.0, 2.0]),
        "nx": st.integers(1, 6),
        "ny": st.integers(1, 6),
    }
)


def _mostly(good, bad):
    """good, or about one draw in six bad: most configs then reach a runner."""
    return st.integers(0, 5).flatmap(lambda i: bad if i == 5 else good)


def _param_value(name, default):
    if isinstance(default, dict):
        good = GRID
    elif isinstance(default, list):
        good = st.lists(FLOATS, max_size=3)
    elif isinstance(default, bool):
        good = st.booleans()
    elif isinstance(default, str):
        good = st.sampled_from([*MATRIX_KINDS, "bogus"])
    elif isinstance(default, int):
        good = st.integers(-1, 3) | st.sampled_from([2.0, 2.5])
    else:
        good = FLOATS | st.none()
    return _mostly(good, WRONG_TYPE)


@st.composite
def run_configs(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    defaults = SCENARIOS[name]["params"]
    keys = draw(st.lists(st.sampled_from(sorted(defaults)), unique=True)) if defaults else []
    params = {k: draw(_param_value(k, defaults[k])) for k in keys}
    if name == "pseudospec_map":
        params.setdefault("grid", {"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2, "nx": 5, "ny": 4})
    if draw(st.integers(0, 9)) == 0:
        params["bogus"] = 1
    kind = draw(_mostly(st.just(REQUIRED_PERT.get(name, "poly")), st.sampled_from([*PERT_KINDS, "bogus"])))
    pert = {"kind": kind}
    if kind in PERT_FIELD:
        pert[PERT_FIELD[kind]] = draw(_mostly(st.sampled_from([0.1, 0.5, 2.0]), FLOATS | WRONG_TYPE))
    symbols = st.sampled_from(["-1:1", "1:1", "-1:1;1:1", "-1:0.1;1:1", "-2:1;1:0.5,0.5"])
    return {
        "scenario": name,
        "symbol": draw(_mostly(symbols, st.sampled_from(["0:1", "huh"]))),
        "n": draw(_mostly(st.integers(1, 12), st.sampled_from([0, 2.5, "4"]))),
        "pert": pert,
        "noise": draw(_mostly(st.sampled_from(NOISE_KINDS), st.just("bogus"))),
        "trials": draw(_mostly(st.integers(1, 2), st.sampled_from([0, 1.5]))),
        "seed": draw(st.integers(0, 3)),
        "params": params,
    }


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=run_configs())
def test_run_ends_in_an_exit_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(Path(tmp) / "out")]) in (0, 1, 2)


SYMBOL_TEXT = _mostly(
    st.sampled_from(["-1:1", "-1:1;1:1", "-2:1;1:0.5,0.5"]),
    st.sampled_from(["0:1", "-1:nan", "-1:inf", "huh", "1:1;1:2"]),
)
PERT_TEXT = _mostly(
    st.sampled_from(["none", "poly:2", "exp:0.5", "superexp:1", "macro:0.5"]),
    st.sampled_from(["exp:2", "poly:x", "bogus"]),
)
BOUND_TEXT = st.sampled_from(["-2", "0", "1.5", "2", "nan", "x"])
# level strings, well-formed or not; only the first two are valid
LEVEL_TEXT = st.sampled_from(["0.01,0.1", "0.5", "abc", "0.1,x", "-1", "0.1,0.1", "", "nan"])


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["spectrum", "pseudospectrum"]))
    n = draw(_mostly(st.integers(1, 8), st.integers(-2, 0)))
    argv = [command, "--symbol", draw(SYMBOL_TEXT), "--n", str(n), "--pert", draw(PERT_TEXT)]
    argv += ["--seed", str(draw(st.integers(0, 3)))]
    if command == "pseudospectrum":
        argv += ["--matrix", draw(st.sampled_from(MATRIX_KINDS))]
        for flag in ("--nx", "--ny"):
            argv += [flag, str(draw(_mostly(st.integers(2, 6), st.integers(-1, 1))))]
        for flag in ("--re-min", "--re-max", "--im-min", "--im-max"):
            if draw(st.integers(0, 5)) == 0:
                argv += [flag, draw(BOUND_TEXT)]
        argv += ["--levels", draw(LEVEL_TEXT)]
    if draw(st.booleans()):
        argv += ["--plot", "out.svg"]
    return argv


@settings(max_examples=80, derandomize=True, deadline=None)
@given(argv=cli_argvs())
def test_cli_flags_end_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [str(Path(tmp) / a) if a == "out.svg" else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
