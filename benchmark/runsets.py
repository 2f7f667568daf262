#!/usr/bin/env python3
"""Run sets of the benchmark and compare them.

    python3 benchmark/runsets.py collect --out benchmark/results/a.jsonl
    python3 benchmark/runsets.py spread  benchmark/results/a.jsonl
    python3 benchmark/runsets.py compare benchmark/results/a.jsonl benchmark/results/b.jsonl

`collect` runs BENCHMARK.json's command once per workload and seed, each run
in its own child process, one after another (nothing else should run beside
it), and appends one JSON line per run. `spread` prints, per workload and
end-to-end metric, the median and the distance between the quartiles as a
share of the median, against the metric's bound. `compare` prints both
sides' medians and quartiles, the ratio with its base, and `same` /
`regressed` / `improved` / `unresolved` against the bound; a spread wider
than the bound is unresolved, not unchanged. Run from the root of the repo.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def collect(args):
    bench = spec()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for name in names:
                cmd = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(int(args.trace)),
                ]
                run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = run.stdout.strip().splitlines()
                if run.returncode != 0 or not lines:
                    sys.exit(f"{' '.join(cmd)}: exit code {run.returncode}")
                result = json.loads(lines[-1])
                digest = [l.split()[-1] for l in lines if l.startswith("# ") and " digest " in l]
                record = {"workload": name, "seed": seed, "trace": int(args.trace),
                          "digest": digest[0] if digest else None, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)


def load(path):
    """{workload: {metric: [values in seed order]}}, digests, failed operations."""
    values, digests, failed = {}, {}, 0
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            failed += rec["result"]["failed"]
            digests[(rec["workload"], rec["seed"])] = rec["digest"]
            for metric, m in rec["result"]["metrics"].items():
                values.setdefault(rec["workload"], {}).setdefault(metric, []).append(m["value"])
    return values, digests, failed


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def rel_spread(xs):
    q1, _, q3 = quartiles(xs)
    med = statistics.median(xs)
    return (q3 - q1) / med if med else 0.0


def spread(args):
    bench = spec()
    values, _, failed = load(args.file)
    worst = 0.0
    print(f"{'workload':<16} {'metric':<16} {'median':>16} {'iqr/median':>11} {'bound':>7}")
    for name, metrics in values.items():
        for m in bench["end_to_end"]:
            xs = metrics[m["name"]]
            s = rel_spread(xs)
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
                flag = "" if s <= m["bound"] / 3 else ("  > bound/3" if s <= m["bound"] else "  > BOUND")
            print(f"{name:<16} {m['name']:<16} {statistics.median(xs):>16.6g} {s:>11.4f} {m['bound']:>7.3f}{flag}")
    print(f"failed operations: {failed}; widest spread is {worst:.2f} of its bound")


def compare(args):
    bench = spec()
    a, da, fa = load(args.a)
    b, db, fb = load(args.b)
    verdicts = {}
    print(f"{'workload':<16} {'metric':<16} {'a: q1 / median / q3':>38} {'b: q1 / median / q3':>38} "
          f"{'b/a':>8} {'bound':>6}  verdict")
    for name in a:
        for m in bench["end_to_end"]:
            xa, xb = a[name][m["name"]], b[name][m["name"]]
            qa, qb = quartiles(xa), quartiles(xb)
            ratio = qb[1] / qa[1]
            lower = m["better"] == "lower"
            worse = ratio - 1 if lower else 1 - ratio
            clean = (max(xb) < min(xa)) if lower else (min(xb) > max(xa))
            if worse > m["bound"]:
                verdict = "regressed"
            elif clean:
                verdict = "improved"
            elif max(rel_spread(xa), rel_spread(xb)) > m["bound"]:
                verdict = "unresolved"
            elif -worse > m["bound"]:
                verdict = "improved"
            else:
                verdict = "same"
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            fmt = lambda q: " / ".join(f"{v:.6g}" for v in q)
            print(f"{name:<16} {m['name']:<16} {fmt(qa):>38} {fmt(qb):>38} {ratio:>8.4f} {m['bound']:>6.3f}  {verdict}")
    drift = sorted(k for k in da if k in db and da[k] != db[k])
    for name, seed in drift:
        print(f"simulated statistics differ: {name} seed {seed}: {da[(name, seed)]} vs {db[(name, seed)]}")
    print(f"failed operations: a {fa}, b {fb}; digests that differ: {len(drift)}; " +
          ", ".join(f"{k}: {v}" for k, v in sorted(verdicts.items())) + " (ratios are b over a)")
    if verdicts.get("regressed") or verdicts.get("unresolved") or drift or fb > fa:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", type=int, default=10, help="number of seeds (default 10)")
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    c.add_argument("--trace", action="store_true", help="make the traced run instead")
    c.add_argument("--workloads", nargs="*")
    c.set_defaults(fn=collect)
    s = sub.add_parser("spread")
    s.add_argument("file")
    s.set_defaults(fn=spread)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=compare)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
