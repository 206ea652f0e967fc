"""End-to-end serving benchmark: ``repro serve-http`` driven over HTTP.

One fixed trace world, four traffic mixes, a separate server process
and a single closed-loop load-generator process.  ``run.py`` is the
one-workload entry point named by the root ``BENCHMARK.json``;
``python -m benchmarks.e2e run|compare`` repeats and compares run-sets,
and ``validate`` checks the host-speed normalization.
See ``README.md`` in this directory for the metric glossary.
"""
