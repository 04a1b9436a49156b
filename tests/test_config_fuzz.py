"""Fuzz of the run-config grammar and of runs: any INI text loads or is a config
error, and any small run exits 0, 1 or 2 without a traceback."""

import contextlib
import io
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from langevin_kl import cli
from langevin_kl.cli import ConfigError, RunConfig, load_config, main

# a plausible value per (section, key); the fuzz mixes these with wild ones
_PLAUSIBLE = {
    "run": {
        "regime": ["strong", "weak", "halving"],
        "epsilon": ["0.5", "0.1"],
        "n_chains": ["20", "2"],
        "seed": ["0", "7"],
        "record_every": ["1", "10"],
        "out_dir": ["out"],
    },
    "potential": {
        "kind": ["quadratic-diagonal", "quadratic-full", "huber"],
        "diag": ["1, 2", "1"],
        "matrix": ["2 0.5 | 0.5 1", "1"],
        "delta": ["1"],
        "dim": ["1", "2"],
    },
    "init": {
        "kind": ["gaussian", "point", "gaussian_1_over_m"],
        "mean": ["0", "0, 0"],
        "cov_diag": ["1", "1, 1"],
        "x": ["0"],
    },
    "oracles": {
        "gaussian": ["true", "false"],
        "grid": ["true", "false"],
        "grid_n": ["64"],
    },
    "weak": {key: ["estimate", "1", "inf"] for key in ("c1", "c2", "h_prime", "kl0")},
    "halving": {"kl0": ["1", "4"]},
}
# the [potential] and [init] keys each kind reads besides kind: a plausible draw sets
# another key 1 time in 10, so that most draws get past the check that refuses it
_READS = {
    "quadratic-diagonal": ("diag",),
    "quadratic-full": ("matrix",),
    "huber": ("delta", "dim"),
    "gaussian": ("mean", "cov_diag"),
    "point": ("x",),
}


def _read(section: str, keys: dict, key: str) -> bool:
    """Whether the kind drawn so far for the section reads key; an [init] without kind is gaussian_1_over_m."""
    return section not in ("potential", "init") or key == "kind" or key in _READS.get(keys.get("kind"), ())


def test_the_fuzz_grammar_is_the_declared_one():
    """_PLAUSIBLE and _READS name exactly the sections, keys and kinds of the run-config grammar, so a key
    added to the grammar without a fuzz value fails here."""
    assert {s: set(keys) for s, keys in _PLAUSIBLE.items()} == {s: set(keys) for s, keys in cli._CONFIG_KEYS.items()}
    for section, kinds in cli._KIND_KEYS.items():
        assert set(_PLAUSIBLE[section]["kind"]) == set(kinds)
    kinds = {kind: tuple(keys) for section in cli._KIND_KEYS.values() for kind, keys in section.items()}
    assert _READS == {kind: keys for kind, keys in kinds.items() if keys}


_WILD = [
    "", "0", "-1", "inf", "-inf", "nan", "1e308", "1e-320", "18446744073709551616", "1,,2", "1 2 | 3",
    "%(x)s", "%", "estimate", "yes", "x",
]
_numbers = st.one_of(st.integers(-(2**70), 2**70).map(str), st.floats().map(repr))
_wild = st.one_of(
    st.sampled_from(_WILD),
    _numbers,
    st.lists(_numbers, min_size=1, max_size=4).map(", ".join),
    st.text(string.printable, max_size=12),
)


@st.composite
def _ini(draw):
    # plausible values (or none) everywhere, then up to three wild ones
    values = {}
    for section, keys in _PLAUSIBLE.items():
        if section in ("run", "potential") or draw(st.booleans()):
            values[section] = {}
            for key, good in keys.items():
                if draw(st.integers(0, 3)) and (_read(section, values[section], key) or draw(st.integers(0, 9)) == 9):
                    values[section][key] = draw(st.sampled_from(good))
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sorted(_PLAUSIBLE)))
        key = draw(st.sampled_from(sorted(_PLAUSIBLE[section])))
        values.setdefault(section, {})[key] = draw(_wild)
    lines = []
    for section, keys in values.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(string.printable, max_size=20)))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=500, deadline=2000)
@given(text=_ini())
def test_any_ini_loads_or_is_a_config_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_text(text)
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


# small runs: few chains, a coarse epsilon and both oracles; grid runs take
# their whole plan on 64 cells. Most draws are consistent configs that run;
# up to two values are then replaced by an out-of-range one
_POTENTIALS = [
    ({"kind": "quadratic-diagonal", "diag": "1, 2"}, 2),
    ({"kind": "quadratic-diagonal", "diag": "2"}, 1),
    ({"kind": "quadratic-full", "matrix": "2 0.5 | 0.5 1"}, 2),
    ({"kind": "huber", "delta": "1", "dim": "1"}, 1),
    ({"kind": "huber", "delta": "0.5", "dim": "2"}, 2),
]
_OUT_OF_RANGE = [
    ("run", "epsilon", ["0", "nan", "40"]),
    ("run", "n_chains", ["1", "-3"]),
    ("run", "seed", ["-1", "18446744073709551616"]),
    ("run", "record_every", ["0", "1000000"]),
    ("potential", "diag", ["0, 1", "1e-300"]),
    ("potential", "matrix", ["1 2 | 3 4", "1"]),
    ("potential", "delta", ["-1", "inf"]),
    ("init", "mean", ["1e308", "0, 0, 0"]),
    ("init", "cov_diag", ["0", "1e308"]),
    ("init", "x", ["1e300", "nan"]),
    ("oracles", "grid_n", ["8", "0"]),
    ("weak", "c1", ["0", "inf"]),
    ("halving", "kl0", ["0", "1e308"]),
]


@st.composite
def _small_run(draw, out_dir):
    potential, d = draw(st.sampled_from(_POTENTIALS))
    quadratic = potential["kind"] != "huber"
    regime = draw(st.sampled_from(["strong", "halving", "weak"] if quadratic else ["weak"]))
    ones = ", ".join(["1"] * d)
    inits = [
        {"kind": "gaussian", "mean": ", ".join(["0.5"] * d), "cov_diag": ones},
        {"kind": "point", "x": ones},
    ]
    init = draw(st.sampled_from(inits + [{"kind": "gaussian_1_over_m"}] * quadratic))
    values = {
        "run": {
            "regime": regime,
            "epsilon": draw(st.sampled_from(["0.5", "0.9"])),
            "n_chains": draw(st.sampled_from(["2", "3", "16"])),
            "seed": draw(st.sampled_from(["0", "18446744073709551615"])),
            "record_every": draw(st.sampled_from(["1", "7", "100"])),
            "out_dir": out_dir,
        },
        "potential": dict(potential),
        "init": dict(init),
        "oracles": {
            "gaussian": str(quadratic and init["kind"] != "point" and draw(st.booleans())).lower(),
            "grid": str(d == 1 and draw(st.booleans())).lower(),
            "grid_n": "64",
        },
    }
    if regime == "weak":
        choices = ["estimate", "1", "0.5"] if values["oracles"]["grid"] == "true" else ["1", "0.5"]
        values["weak"] = {key: draw(st.sampled_from(choices)) for key in ("c1", "c2", "h_prime", "kl0")}
    for _ in range(draw(st.integers(0, 2))):
        section, key, wild = draw(st.sampled_from(_OUT_OF_RANGE))
        values.setdefault(section, {})[key] = draw(st.sampled_from(wild))
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in values.items()
    )


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_any_small_run_exits_0_1_or_2(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    text = data.draw(_small_run(base / "run-out"))
    path = base / "run.ini"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    assert code in (0, 1, 2), text
    assert "Traceback" not in err.getvalue(), text


# extreme values for every number `plan` takes, mixed with plausible ones so
# that many draws reach a planner; --d is an integer option, so its float
# spellings are usage errors, and a 400-digit d is beyond float range.
# Options go as --name=value, so argparse takes "-inf" as a value
_PLAN_FLOATS = [
    "0", "-1", "-inf", "5e-324", "1e-320", "1e-300", "1e-200", "1e-30", "1e30", "1e200", "1e308", "inf", "nan",
]
_plan_float = st.one_of(
    st.sampled_from(_PLAN_FLOATS), st.sampled_from(["0.1", "0.5", "1", "2", "4"]), st.floats().map(repr)
)
_PLAN_DIMS = ["1", "2", "0", "-3", "1000000", str(2**53 + 1), "9" * 400, "1e308", "nan"]


# the number options each regime reads besides its target's (--eps for kl, --delta for
# tv and w2): the fuzz gives another one 1 time in 20, so that most draws reach a planner
_PLAN_READS = {"strong": "--m --L --d", "weak": "--L --d --c1 --c2 --kl0 --h-prime", "halving": "--m --L --d --kl0"}


@st.composite
def _plan_argv(draw):
    regime = draw(st.sampled_from(["strong", "weak", "halving"]))
    target = draw(st.sampled_from(["kl", "tv", "w2"] if regime == "strong" else ["kl"] * 18 + ["tv", "w2"]))
    argv = ["plan", "--regime", regime, "--target=" + target]
    reads = _PLAN_READS[regime].split() + ["--eps" if target == "kl" else "--delta"]
    for option in ("--m", "--L", "--d", "--eps", "--kl0", "--c1", "--c2", "--h-prime", "--delta"):
        if draw(st.integers(0, 9)) if option in reads else draw(st.integers(0, 19)) == 19:
            value = st.one_of(st.sampled_from(["1", "2", "10"]), st.sampled_from(_PLAN_DIMS)) if option == "--d" else _plan_float
            argv.append(f"{option}={draw(value)}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(argv=_plan_argv())
def test_any_plan_exits_0_1_or_2(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value its type cannot parse
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
