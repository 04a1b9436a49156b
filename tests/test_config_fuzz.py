"""Fuzz of the run-config grammar: any INI text loads or is a config error."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from langevin_kl.cli import ConfigError, RunConfig, load_config

# a plausible value per (section, key); the fuzz mixes these with wild ones
_PLAUSIBLE = {
    "run": {
        "regime": ["strong", "weak", "halving"],
        "epsilon": ["0.5", "0.1"],
        "n_chains": ["20", "2"],
        "seed": ["0", "7"],
        "record_every": ["1", "10"],
        "out_dir": ["out"],
        "grid_max_steps": ["100"],
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
        "grid_x_min": ["-8"],
        "grid_x_max": ["8"],
        "grid_n": ["64"],
    },
    "weak": {key: ["estimate", "1", "inf"] for key in ("c1", "c2", "h_prime", "kl0")},
    "halving": {"kl0": ["1", "4"]},
}
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
                if draw(st.integers(0, 3)):
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


@settings(derandomize=True, database=None, max_examples=200, deadline=2000)
@given(text=_ini())
def test_any_ini_loads_or_is_a_config_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_text(text)
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
