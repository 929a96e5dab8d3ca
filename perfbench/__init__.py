"""The repository benchmark: the paper's protocol, timed end to end and per layer."""
