"""One benchmark worker process.

Usage (started by run.py, never by hand):

    python3 worker.py --src DIR --workload NAME --seed N [--trace FILE]

The worker imports hermstab from DIR, builds the workload's inputs and
writes ``{"ready": true}`` on stdout.  It then answers one JSON command per
stdin line with one JSON line on stdout:

* ``job``    -- one timed job, calibrated around and during (calib.py): the whole
               workload for examples/deep_*, the next round of queries
               for queries.  Outputs are checked after the clock stops.
* ``kernel`` -- the fields L0 kernel.
* ``layers`` -- per-layer metrics from the recorded spans (traced workers
               only); the spans are written to FILE.
* ``quit``   -- exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys

import calib
import fields_kernel
import tracing
import workloads


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call_cli(main, argv):
    """Run one CLI invocation in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # anything escaping main is a failure
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class ColdJob:
    """examples / deep_*: the whole workload once, in a fresh worker."""

    def __init__(self, workload, hermstab):
        self.workload = workload
        self.cli = hermstab.cli
        self.stability = hermstab.stability
        F = hermstab.FieldTower.rationals()
        A = None
        if workload == "deep_conj":
            F = F.adjoin_sqrt(2).adjoin_laurent().adjoin_laurent()
            A = hermstab.QuaternionAlgebra(F, -1, F.generator(2))
        elif workload == "deep_orth":
            F = F.adjoin_laurent().adjoin_laurent()
            A = hermstab.QuaternionAlgebra(F, F.generator(1), -1, "orthogonal", [0, 0, 1, 0])
        self.algebra = A

    def run(self, tracer, clock):
        """Returns (latencies, check closure)."""
        t0 = clock()
        if self.algebra is None:
            # looked up at call time so that a traced worker sees the wrapper
            result = _call_cli(self.cli.main, ["--json", "examples"])
        else:
            try:
                result = self.stability.stability_report(self.algebra)
            except Exception as exc:
                result = exc
        return [clock() - t0], lambda: self._check(result)

    def _check(self, result):
        if self.algebra is None:
            code, out, err = result
            if code != 0:
                return [f"exit code {code}: {err.strip()[-200:]}"]
            try:
                reason = workloads.check_examples(out)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        elif isinstance(result, Exception):
            reason = f"{type(result).__name__}: {result}"
        else:
            report_json = json.dumps(result.to_json(), sort_keys=True, indent=2)
            reason = workloads.check_deep(
                self.workload, report_json, result.group_description()
            )
        return [reason] if reason else []


class QueryRounds:
    """queries: one round of queries per job, cache kept warm throughout."""

    def __init__(self, seed, hermstab):
        self.rounds = workloads.query_rounds(seed)
        self.batch = next(self.rounds)  # inputs are built outside the timed job
        self.check_digest = seed == workloads.DEFAULT_SEED
        self.cli = hermstab.cli
        splitting = hermstab.splitting
        self.verify = lambda doc: splitting.verify_certificate(
            splitting.SplittingCertificate.from_json(doc)
        )

    def run(self, tracer, clock):
        batch = self.batch
        latencies, results = [], []
        for q in batch:
            if tracer is not None:
                tracer.item = q.qid
            t0 = clock()
            results.append(_call_cli(self.cli.main, q.argv))
            latencies.append(clock() - t0)
        return latencies, lambda: self._check(batch, results)

    def _check(self, batch, results):
        self.batch = next(self.rounds)
        errors = []
        for q, (code, out, err) in zip(batch, results):
            try:
                reason = workloads.check_query(q, code, out, self.verify)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason:
                errors.append(f"query {q.qid} ({q.command}): {reason} {err.strip()[-200:]}")
        if self.check_digest:
            self.check_digest = False
            text = "".join(out for _, out, _ in results)
            if workloads.digest(text) != workloads.DIGESTS["queries"]:
                # the round's bytes are wrong somewhere: fail all of it
                errors = [f"query {q.qid}: round output digest differs" for q in batch]
        return errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace")
    args = ap.parse_args()

    proto = sys.stdout
    sys.path.insert(0, args.src)
    import hermstab
    import hermstab.cli

    calibration = calib.Calibration()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(calibration.clock)
        tracer.install()
    if args.workload == "queries":
        job = QueryRounds(args.seed, hermstab)
    else:
        job = ColdJob(args.workload, hermstab)

    def reply(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    reply({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)["cmd"]
        if cmd == "job":
            spent, rounds = calibration.spent, calibration.rounds
            t0 = calibration.clock()
            latencies, check = calibration.around(lambda: job.run(tracer, calibration.clock))
            wall = calibration.clock() - t0
            rss = _peak_rss_mb()
            calib_s = (calibration.spent - spent) / (calibration.rounds - rounds) * calib.PASS_ROUNDS
            if tracer is not None:
                tracer.enabled = False
            errors = check()
            if tracer is not None:
                tracer.enabled = True
            reply({
                "wall_s": wall,
                "calib_s": calib_s,
                "latencies": latencies,
                "attempted": len(latencies),
                "errors": errors,
                "rss_mb": rss,
            })
        elif cmd == "kernel":
            metrics, errors = fields_kernel.run(args.seed, hermstab.FieldTower)
            reply({"metrics": metrics, "errors": errors})
        elif cmd == "layers":
            metrics = tracer.layer_metrics()
            tracer.write(args.trace)
            reply({"metrics": metrics})
        elif cmd == "quit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
