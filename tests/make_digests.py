"""The name, byte count and sha256 of every output of a fixed set of runs,
and the script that commits them as `tests/data/digests.json`.

The runs cover:
  * the seven subcommands on the built-in config: each artifact, and the
    run's stdout, stderr and exit code;
  * the benchmark's inputs: its pinned design point, one 400x400 full-chip
    layout and one 100k-point RF variant;
  * the RF writers on small grids: unequal port references, a series
    R > 0, and a band from 0 Hz;
  * `rf` at 2 x 4096 + 1 and 2 x 8192 + 3 points, where the forked
    formatting and the forked cascade run.

Reports are hashed as written, `config_sha256` included.  Run

    python tests/make_digests.py

from any directory after a change that is meant to move an output, and
name each digest that moved in CHANGES.md.  `test_digests.py` reruns the
cases and lists every name whose digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "data" / "digests.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402

COMMANDS = ("scale", "impedance", "rf", "layout", "budget", "sweep", "paper-check")
FULLCHIP_SEED = 920
RF_VARIANT = 0


def _entry(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _cli(name: str, args: list[str], config: dict | None = None) -> dict:
    """Run the CLI in the working directory with `--out name`, after writing
    `config`, if given, to `name.json`: the digests of every artifact, and of
    stdout, stderr and the exit code, by `name/<file>`."""
    from densewire import cli

    if config is not None:
        args = ["--config", str(workloads.write_json(Path(f"{name}.json"), config))] + args
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--out", name] + args)
    found = {f"{name}/{path}": {"bytes": Path(name, path).stat().st_size, "sha256": sha}
             for path, sha in workloads.digest_tree(Path(name)).items()}
    found[f"{name}/stdout"] = _entry(out.getvalue().encode())
    found[f"{name}/stderr"] = _entry(err.getvalue().encode())
    found[f"{name}/exit_code"] = _entry(str(code).encode())
    return found


def _rf_texts(name: str, rf, z_load: float | None = None) -> dict:
    """The CSV and Touchstone texts of the default signal path at `rf`,
    with a 20 mm pin of 30 ohm in an eps_r = 3 fill; `z_load` replaces the
    load's reference."""
    from densewire import rfnet

    elements = rfnet.build_signal_path(rf, 0.02, 30.0, pin_eps_eff=3.0, feed_eps_eff=3.0)
    net = rfnet.cascade(elements, np.linspace(*rf.band, rf.points),
                        z_src=rf.system_impedance,
                        z_load=rf.system_impedance if z_load is None else z_load)
    csv, s2p = map("".join, zip(*rfnet.response_texts(rfnet.to_s_parameters(net))))
    return {f"{name}/rf_response.csv": _entry(csv.encode()), f"{name}/rf.s2p": _entry(s2p.encode())}


def digests(work: Path) -> dict[str, dict]:
    """Every case's digests by name, sorted; `work` is an empty directory
    the runs write into."""
    from densewire.config import RfSettings

    found = {}
    with contextlib.chdir(work):
        for command in COMMANDS:
            found |= _cli(f"builtin/{command}", [command])
        for command in ("scale", "impedance", "rf", "layout", "budget", "sweep"):
            found |= _cli(f"pinned/{command}", [command], workloads.pinned_raw())
        fullchip = workloads.pinned_raw() | {"layout": workloads.fullchip_layout(FULLCHIP_SEED)}
        found |= _cli(f"fullchip-{FULLCHIP_SEED}/layout", ["layout"], fullchip)
        found |= _cli(f"rf-variant-{RF_VARIANT}/rf", ["rf"], workloads.rf_raw(RF_VARIANT))
        for points in (2 * 4096 + 1, 2 * 8192 + 3):
            raw = workloads.default_raw()
            raw["rf"]["points"] = points
            found |= _cli(f"rf-{points}/rf", ["rf"], raw)
    small = dict(band=(1e9, 10e9), points=21, feed_length=0.03, taper_length=0.01,
                 taper_segments=4, bond_inductance=45e-12)
    found |= _rf_texts("rfnet/unequal-references", RfSettings(**small), z_load=75.0)
    found |= _rf_texts("rfnet/series-r", RfSettings(**small, bond_resistance=0.5))
    found |= _rf_texts("rfnet/band-from-0hz", RfSettings(**small | {"band": (0.0, 10e9)}))
    return dict(sorted(found.items()))


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        found = digests(Path(work))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(found, indent=1) + "\n", encoding="utf-8")
    print(f"{len(found)} digests -> {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
