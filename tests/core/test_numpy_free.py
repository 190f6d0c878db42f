"""The program runs without numpy.

numpy is a test-only oracle (``tests/stats``); importing it would add
about 14 MB of resident memory to every study and serve process.  A
fresh interpreter builds a world and answers a query, then checks that
nothing pulled numpy in.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import sys
from repro.core import StudyConfig, World
from repro.entities.queries import ranking_queries

world = World.build(StudyConfig(seed=7, corpus_scale=0.2, search_shards=0))
query = ranking_queries(world.catalog, count=1, seed=7)[0]
for engine in world.engines.values():
    engine.answer(query)
assert "numpy" not in sys.modules, "numpy was imported"
print("ok")
"""


def test_world_build_and_answer_do_not_import_numpy():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
