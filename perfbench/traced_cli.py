"""Run the lens-lab CLI with the benchmark's layer wrappers installed.

usage: traced_cli.py DUMP JOB_ID CLI_ARGS...

Writes the tracer's counters and spans to DUMP as JSON when the CLI
returns, then exits with the CLI's exit code.
"""

import json
import sys

import tracing


def main():
    dump, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from lenslab import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.start_job(job_id)
    try:
        code = cli.main(argv)
    finally:
        with open(dump, "w") as f:
            json.dump({"raw": tracer.raw(), "spans": tracer.spans}, f)
    sys.exit(code)


if __name__ == "__main__":
    main()
