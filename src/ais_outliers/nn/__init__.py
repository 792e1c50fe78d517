"""Self-contained recurrent network engine: SimpleRNN/GRU cells,
bidirectional unrolling, variational and conventional dropout, BPTT,
Adam, and checkpointing. No autodiff framework; gradients are hand-derived
and finite-difference checked."""
