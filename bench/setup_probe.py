"""Set-up work of one fresh process, timed by the caller from spawn to exit.

Reads ``{"src": ..., "manifests": [...], "spaces": [[vars, order], ...]}``
on stdin, imports kahlercheck from ``src``, loads and validates every
manifest, and builds the jet tables of each (variables, order) space by
one first use: a variable jet, a multiply, ``conj`` and ``d_dz``.
"""

import json
import sys


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import kahlercheck

    if not kahlercheck.__file__.startswith(job["src"]):
        sys.stderr.write(f"kahlercheck imported from {kahlercheck.__file__}, not {job['src']}\n")
        return 2
    for doc in job["manifests"]:
        kahlercheck.load_scenario(doc)
    for num_vars, order in job["spaces"]:
        x = kahlercheck.jet_variable(0, 0.25, num_vars, order)
        (x * x).conj()
        if order:
            x.d_dz(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
