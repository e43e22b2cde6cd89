"""S002 bad fixture: a hot-path registry class carrying a __dict__."""


class MicroOp:
    """One in-flight micro-operation (fixture twin of the real one)."""

    def __init__(self, inst, rob_index):
        self.inst = inst
        self.rob_index = rob_index
        self.done_at = -1
