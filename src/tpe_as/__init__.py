"""TPE search with an adaptive weighted Lagrangian objective, plus a synthetic
portfolio black-box and experiment harness."""
