"""celab benchmark: fixed-work workloads with correctness gates.

Run from the repository root:

    python3 perfbench/run.py --workload train_coord --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5        # BENCHMARK.json's
    python3 perfbench/run.py --compare base.jsonl change.jsonl # ratios + bounds

With --trace 0 it prints the end-to-end metrics listed in BENCHMARK.json;
with --trace 1 it alternates untraced and traced phases and prints the
per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --out FILE also
writes the full record (metadata, the per-workload metrics,
failures by cause, determinism anchors). See perfbench/README.md.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# lp_defects is not in BENCHMARK.json: its operations fail (see README.md)
WORKLOAD_NAMES = ("train_coord", "pipeline_3p", "lp_mix", "lp_defects")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def _import_celab() -> None:
    """Make the checkout's src/ importable and refuse any other celab."""
    src = ROOT / "src"
    if not (src / "celab" / "__init__.py").is_file():
        _fail(f"no celab package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import celab

    if Path(celab.__file__).resolve().parent != (src / "celab").resolve():
        _fail(f"imported celab from {celab.__file__}, not from {src}")


def _print_report(result: dict, spec_units: dict) -> None:
    from perfbench.runner import DETAIL_METRICS

    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']} s  "
          f"trace {result['trace']}")
    meta = result["meta"]
    print(f"   git {meta['git_sha'][:12]}  python {meta['python']}  numpy {meta['numpy']}"
          f"  nproc {meta['nproc']}  blas threads {meta['blas_threads']}")
    print(f"   operations {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for name, value in result["metrics"].items():
        print(f"   {name:<38} {value:>14.6g} {spec_units.get(name, '')}")
    if not result["trace"]:
        for name, value in result["detail"].items():
            unit = DETAIL_METRICS[name][0]
            print(f"   {name:<38} {value:>14.6g} {unit}")
    for cause, count in result["failures"].items():
        print(f"   failed: {cause} x{count}")
    for kind, value in result["anchors"].items():
        print(f"   anchor {kind:<20} {value[:16]}")


def _compare(paths: list[str], spec: dict) -> int:
    """Per-metric ratios of the median runs in two result files."""
    from statistics import median

    from perfbench.runner import DETAIL_METRICS

    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update({name: (better, bound) for name, (_, better, bound) in DETAIL_METRICS.items()})
    sides = []
    for path in paths:
        runs = []
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if line.startswith("{"):
                obj = json.loads(line)
                if "metrics" in obj:
                    runs.append(obj)
        if not runs:
            _fail(f"no result objects in {path}")
        values: dict[str, list[float]] = {}
        for run in runs:
            for group in ("metrics", "detail"):
                for name, value in run.get(group, {}).items():
                    value = value["value"] if isinstance(value, dict) else value
                    values.setdefault(name, []).append(value)
        sides.append({name: median(v) for name, v in values.items()})
    base, change = sides
    flagged = 0
    print(f"{'metric':<38} {'base':>12} {'change':>12} {'ratio':>8}  bound")
    for name in base:
        if name not in change:
            continue
        a, b = base[name], change[name]
        ratio = b / a if a else float("inf") if b else 1.0
        better, bound = bounds.get(name, (None, None))
        worse = bound is not None and (
            b > a * (1 + bound) if better == "lower" else b < a * (1 - bound))
        flagged += worse
        mark = f"{bound:g}  WORSE" if worse else (f"{bound:g}" if bound is not None else "-")
        print(f"{name:<38} {a:>12.6g} {b:>12.6g} {ratio:>8.4f}  {mark}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record(s) here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = _load_spec()
    if args.compare:
        return _compare(args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    _import_celab()
    from perfbench import runner

    if args.setup_only:
        import tempfile

        with tempfile.TemporaryDirectory(dir=ROOT / "perfbench", prefix=".work-") as tmp:
            _, seconds, _ = runner.set_up(args.workload, ROOT, args.seed, Path(tmp), STARTED)
        print(json.dumps({"setup_s": seconds}))
        return 0

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else (args.workload,))
    results = []
    for name in names:
        result = runner.run_workload(name, ROOT, Path(__file__).resolve(), args.seed,
                                     args.seconds, bool(args.trace))
        missing = set(units) - set(result["metrics"])
        if missing:
            _fail(f"metrics missing from the {name} result: {sorted(missing)}")
        result["metrics"] = {m: result["metrics"][m] for m in units}
        _print_report(result, units)
        results.append(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for result in results:
                fh.write(json.dumps(result) + "\n")

    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{m}" if prefix else m): {"value": v, "unit": units[m]}
            for r in results
            for m, v in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
