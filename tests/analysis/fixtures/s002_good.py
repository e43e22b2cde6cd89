"""S002 good fixture: slots declared, or the exemption justified."""


class MicroOp:
    __slots__ = ("inst", "rob_index", "done_at")

    def __init__(self, inst, rob_index):
        self.inst = inst
        self.rob_index = rob_index
        self.done_at = -1


class Instruction:  # lint: slots-exempt(fixture: a justified exemption is honoured)
    def __init__(self, opcode):
        self.opcode = opcode
