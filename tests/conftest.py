"""Fixtures shared by the test modules."""
import os
import shutil
from pathlib import Path

import pytest

import outbreakmon
from outbreakmon.cli import EXIT_OK, main

from synthdata import labeled_lines


@pytest.fixture(scope="session")
def trained_model(tmp_path_factory):
    """A model file that ``train`` wrote from ``labeled_lines(40, 40)``, with
    the default settings. Shared: a test that changes it takes ``model_file``."""
    work = tmp_path_factory.mktemp("trained")
    labeled = work / "labeled.jsonl"
    labeled.write_text("".join(line + "\n" for line in labeled_lines(40, 40)), encoding="utf-8")
    model = work / "model.json"
    assert main(["train", "--labeled", str(labeled), "--model", str(model), "--quiet"]) \
        == EXIT_OK
    return model


@pytest.fixture()
def model_file(tmp_path, trained_model):
    """This test's own copy of the trained model, at ``tmp_path / "model.json"``."""
    return shutil.copyfile(trained_model, tmp_path / "model.json")


@pytest.fixture()
def child_env():
    """The environment of a child Python that imports this checkout's package,
    without PYTHONUNBUFFERED."""
    src = str(Path(outbreakmon.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return env | {"PYTHONPATH": os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))}
