"""The README's file-format examples match what the code writes."""

import json
import pathlib
import re
from dataclasses import fields

from arflow import model as mdl

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _model_file_example() -> str:
    section = README.read_text().split("### Model parameter file", 1)[1]
    return section.split("```json", 1)[1].split("```", 1)[0]


def _top_level_keys(text: str) -> list[str]:
    depth, keys = 0, []
    for m in re.finditer(r'[{\[]|[}\]]|"(\w+)"\s*:', text):
        if m.group(0) in "{[":
            depth += 1
        elif m.group(0) in "}]":
            depth -= 1
        elif depth == 1:
            keys.append(m.group(1))
    return keys


def test_model_file_example_matches_save_params(tmp_path):
    example = _model_file_example()
    cfg = mdl.PredictorConfig(frame_dim=3, max_frames=2, layers=1, width=4)
    path = tmp_path / "model.json"
    mdl.save_params(str(path), mdl.init_params(cfg))
    doc = json.loads(path.read_text())
    assert _top_level_keys(example) == list(doc)
    config = re.search(r'"config":\s*\{([^{}]*)\}', example).group(1)
    assert re.findall(r'"(\w+)"\s*:', config) == [f.name for f in fields(mdl.PredictorConfig)]
    assert re.search(r'"version":\s*(\d+)', example).group(1) == str(mdl.PARAMS_VERSION)
