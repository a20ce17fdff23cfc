"""One end-to-end benchmark for the exploration service, run over real sockets.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` boots ``repro serve`` from this checkout's ``src/``,
drives one seeded workload over HTTP, checks every answer against an
in-process replay, and prints one JSON result line.  ``BENCHMARK.json`` at
the repository root documents the workloads and the metric set.
"""
