"""Regenerate walk_vertices.json, the vertex list of the `walk` workload.

Runs the program's own breadth-first traversal of the neighbourhood graph
of Q_A3/2 and stores the first expanded vertices, in expansion order, as
exact fraction strings.  Run from the repository root:

    python3 perfbench/make_walk_vertices.py [count]

The default count is 60.  The benchmark reads the file and never calls
`traverse` itself; its output checks do not depend on where the list came
from.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from percop.core import mat_to_json  # noqa: E402
from percop.families import q_an  # noqa: E402
from percop.walk import traverse  # noqa: E402


def main(argv):
    count = int(argv[1]) if len(argv) > 1 else 60
    graph = traverse(q_an(3).scale(Fraction(1, 2)), count)
    vertices = [{"matrix": mat_to_json(node.canonical),
                 "undecided": node.undecided}
                for node in graph.nodes.values()]
    out = HERE / "walk_vertices.json"
    out.write_text(json.dumps({"start": "Q_A3/2", "count": count,
                               "vertices": vertices}, indent=1) + "\n")
    print("wrote %d vertices to %s" % (len(vertices), out.name))


if __name__ == "__main__":
    main(sys.argv)
