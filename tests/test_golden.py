"""Golden byte identity: every shipped config under every policy and placement.

Each case runs ``ldesc-sim run`` in process and pins the sha256 of the
metrics JSON, ``--schedule-out``, ``--plan-out`` and ``--trace-out``.
Placements vary only where the config has more than one zone; a single-zone
run has no placement.

The digests live in ``golden_sha256.json``. A change that is meant to alter
these outputs rewrites that file with
``PYTHONPATH=src python tests/test_golden.py`` and
says why in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from ldesc_sim.cli import main
from ldesc_sim.config import PLACEMENT_NAMES, POLICY_NAMES, load_config

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
DIGESTS = HERE / "golden_sha256.json"
OUTPUTS = ("metrics", "schedule", "plan", "trace")


def _cases() -> list[tuple[str, str, str]]:
    cases = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(path)
        placements = PLACEMENT_NAMES if cfg.system.zone_count > 1 else (cfg.placement,)
        for policy in POLICY_NAMES:
            for placement in placements:
                cases.append((path.stem, policy, placement))
    return cases


def _key(config: str, policy: str, placement: str) -> str:
    return f"{config}/{policy}/{placement}"


def _digests(config: str, policy: str, placement: str, work: Path) -> dict[str, str]:
    raw = json.loads((CONFIGS / f"{config}.json").read_text())
    raw["policy"] = policy
    raw["placement"] = placement
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(raw))
    files = {name: work / f"{name}.out" for name in OUTPUTS}
    argv = ["run", str(cfg), "--out", str(files["metrics"]),
            "--schedule-out", str(files["schedule"]),
            "--plan-out", str(files["plan"]),
            "--trace-out", str(files["trace"])]
    assert main(argv) == 0
    return {name: hashlib.sha256(f.read_bytes()).hexdigest() for name, f in files.items()}


@pytest.mark.parametrize("config,policy,placement", _cases())
def test_outputs_byte_identical(tmp_path, config, policy, placement):
    expected = json.loads(DIGESTS.read_text())[_key(config, policy, placement)]
    assert _digests(config, policy, placement, tmp_path) == expected


def test_every_case_pinned():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(_key(*c) for c in _cases())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {_key(*c): _digests(*c, Path(tmp)) for c in _cases()}
    DIGESTS.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(table)} cases to {DIGESTS}")
