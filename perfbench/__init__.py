"""Repository benchmark: open-loop serving and GBGCN train-and-publish workloads."""
