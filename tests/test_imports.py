"""The runtime needs numpy only: importing the package loads no scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import latent_brrr

SRC = str(Path(latent_brrr.__file__).resolve().parents[1])

MODULES = ("cli", "gibbs", "theory", "io", "tuning", "evaluate", "simulate", "model")

PROBE = """
import importlib, json, pkgutil, sys
import latent_brrr
names = sorted(m.name for m in pkgutil.iter_modules(latent_brrr.__path__))
for name in names:
    importlib.import_module("latent_brrr." + name)
print(json.dumps({"modules": names,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_importing_every_module_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    report = json.loads(out.stdout)
    assert set(MODULES) <= set(report["modules"])
    assert report["scipy"] == []
