"""Performance benchmark for the Bingo reproduction (see README.md here).

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a source checkout.
"""
