"""Write the reference answers the correctness gate compares with.

    python3 perfbench/make_reference.py [workload ...]

Run from the repository root on the engine whose answers are trusted.
It writes the named workloads' references, or all of them.
``corpus`` and ``resolution-2x`` store every entry of one pass;
``random-complexes`` stores the answers of each ring template in its own
coordinates, which every generated copy of the template must reproduce.
"""

import importlib
import json
import os
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    corpus_problems = importlib.import_module(
        "homcalc.corpus").corpus_problems
    todo = {
        "corpus": workloads.corpus(corpus_problems, 0),
        "resolution-2x": workloads.resolution_2x(corpus_problems, 0),
        "random-complexes": [workloads.template_doc(t)
                             for t in workloads.TEMPLATES],
    }
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    for workload in sys.argv[1:] or todo:
        docs = todo[workload]
        ps = run.run_pass(docs, run.Speedometer())
        ref = {doc["name"]: rows for doc, rows in zip(docs, ps["entries"])}
        with open(run.gate.reference_path(workload), "w") as fh:
            json.dump(ref, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{workload}: {sum(map(len, ps['entries']))} entries, "
              f"{ps['wall']:.1f} s")


if __name__ == "__main__":
    main()
