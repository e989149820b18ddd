"""Set-up probe: import the CLI and load one workload's inputs through the
public loaders, as ``semfaith corpus`` / ``semfaith maege score`` do before
scoring.  ``run.py`` times this script in fresh processes (``setup_s``).

    python3 bench/load_inputs.py corpus SOURCE CORRECTION
    python3 bench/load_inputs.py maege MANIFEST GRAPHS_DIR

Prints the path of the imported package, so the caller can check that it
measured the checkout and not an installed copy.
"""
import sys
from pathlib import Path

import semfaith.cli
from semfaith import load_graph, load_manifest, read_corpus, version_id

kind, first, second = sys.argv[1:4]
if kind == "corpus":
    read_corpus(first)
    read_corpus(second)
else:
    for chain in load_manifest(first):
        for k in range(len(chain.versions)):
            load_graph(Path(second) / f"{version_id(chain.sentence_id, k)}.json")
print(semfaith.cli.__file__)
