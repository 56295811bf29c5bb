#!/usr/bin/env python3
"""Write golden.json: the sha256 of `qsiegel expand` stdout for every
(form, prec, format) cell the expand workloads can draw.

    python3 perfbench/make_golden.py

Run from the root of a checkout whose `verify` passes.  It refuses to write
unless `verify --suite tables|relations|structure --prec 12` all PASS, takes
each digest from a cold request (no cache dir), and checks that the
cache-served bytes of every cell at prec <= 12 are identical to the cold ones.
"""
import hashlib
import json
import os
import shutil
import sys
import time

import run


def main():
    work = os.path.join(run.WORK, "golden-%d" % os.getpid())
    os.makedirs(work)
    runner = run.Runner(work, time.monotonic() + 3600)
    try:
        for suite in ("tables", "relations", "structure"):
            res = runner.request(run.verify_request(suite, 12))
            if run.classify(res.request, res.code, res.stdout, {}) != run.OK:
                print("verify %s fails at prec 12; not writing digests" % suite)
                return 1
        golden = {}
        for form, prec, fmt in run.golden_cells():
            res = runner.request(run.expand_request(form, prec, fmt))
            if res.code != 0:
                print("expand %s %d %s exits %d" % (form, prec, fmt, res.code))
                return 1
            golden[run.golden_key(form, prec, fmt)] = hashlib.sha256(res.stdout).hexdigest()
        cache_dir, _ = run.fill_cache(runner, "cache")
        for form, prec, fmt in run.golden_cells():
            if prec > 12:
                continue
            res = runner.request(run.expand_request(form, prec, fmt), cache_dir)
            key = run.golden_key(form, prec, fmt)
            if res.code != 0 or hashlib.sha256(res.stdout).hexdigest() != golden[key]:
                print("cache-served %s differs from cold output" % key)
                return 1
        with open(run.GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print("wrote %d digests to %s" % (len(golden), run.GOLDEN))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(run.WORK) and not os.listdir(run.WORK):
            os.rmdir(run.WORK)


if __name__ == "__main__":
    sys.exit(main())
