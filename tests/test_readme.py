"""Every fenced ``json`` config of README.md runs through the CLI with the
exit code README gives it: 0, or N where an ``<!-- exit N -->`` line stands
right above the fence."""

import json
import re
from pathlib import Path

import pytest

from quadlik.cli import main
from quadlik.models import save_vector_csv

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIG = re.compile(r"(?:<!-- exit (\d) -->\n)?```json\n(.*?)```", re.S)
# the contents of the data files README's configs name
DATA_FILES = {"z.csv": [0.7, -0.3]}


def readme_configs() -> list[tuple[int, dict]]:
    return [(int(code or 0), json.loads(text)) for code, text in CONFIG.findall(README.read_text(encoding="utf8"))]


def test_readme_has_configs():
    assert len(readme_configs()) >= 4


@pytest.mark.parametrize("code, cfg", readme_configs(), ids=lambda v: v["experiment"] if isinstance(v, dict) else str(v))
def test_readme_config_exits_as_documented(tmp_path, code, cfg):
    if "data" in cfg:
        save_vector_csv(str(tmp_path / cfg["data"]), DATA_FILES[cfg["data"]])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf8")
    assert main([cfg["experiment"], "--config", str(path)]) == code
    assert (tmp_path / f"{cfg['out']}.json").exists() == (code in (0, 2))
