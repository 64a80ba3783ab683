"""Regenerate the reference rows the benchmark compares campaigns with.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload (all by default), and for the default and the held-out
workload seed, runs campaigns 0 .. REFERENCE_CAMPAIGNS-1 exactly as the
benchmark would, in this interpreter, and writes their rows.csv, with a
leading `campaign` column, to perfbench/reference/<workload>.seed<N>.csv.
Run it only on code whose outputs are known to be right.
"""

import json
import os
import shutil
import sys

import checks
import run

# pin BLAS as the benchmark's children do, before numpy is first imported
os.environ.update({var: "1" for var in run.BLAS_THREAD_VARS})
sys.path.insert(0, str(run.ROOT / "src"))
import hardylab.cli  # noqa: E402


def main(names) -> int:
    out = run.WORK / f"reference-{os.getpid()}"
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names or sorted(run.WORKLOADS):
            for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
                lines = ["campaign," + ",".join(checks.HEADER)]
                for index in range(run.REFERENCE_CAMPAIGNS):
                    config = run.campaign_config(run.WORKLOADS[name], seed, index)
                    config["output_dir"] = str(out)
                    config_path = out.with_suffix(".json")
                    out.mkdir(parents=True, exist_ok=True)
                    config_path.write_text(json.dumps(config))
                    if hardylab.cli.main(["split", "--config", str(config_path)]) != 0:
                        raise SystemExit(f"{name} seed {seed} campaign {index} failed")
                    rows = (out / "rows.csv").read_text().splitlines()[1:]
                    lines.extend(f"{index},{row}" for row in rows)
                path = run.REFERENCE_DIR / f"{name}.seed{seed}.csv"
                path.write_text("\n".join(lines) + "\n")
                print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        out.with_suffix(".json").unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
