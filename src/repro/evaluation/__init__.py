"""The evaluation harness: regenerates the paper's Table 1 and Table 2."""
