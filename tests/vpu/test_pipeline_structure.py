"""Structural guards on the two pipeline implementations.

``VectorPipeline`` (span-charging scheduler) and ``ReferencePipeline``
(per-cycle stepper) share one model in ``PipelineModel``.  These tests keep
it that way: a model method copied back into both subclasses, or a shared
method overridden by a subclass, fails here instead of silently splitting
the model in two.  A further guard keeps the scheduler's hot methods, and
the per-access helpers they call, on module-bound enum members and
value-keyed opcode tables, and one more keeps every field the
constructors set read somewhere, so a memo whose last reader is deleted
goes with it.
"""

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

from repro.core.uop import MicroOp
from repro.isa.semantics import evaluate_arith
from repro.sim.layout import MemoryLayout
from repro.vpu.pipeline import PipelineModel, VectorPipeline
from repro.vpu.reference import ReferencePipeline
from repro.vpu.vmu import VectorMemoryUnit

#: What the reference keeps: its per-cycle stepper and the un-inlined stage
#: bodies the scheduler's inlined copies are checked against.
REFERENCE_STEPPER = {"run", "_step", "_fast_forward", "_issue_memory",
                     "_issue_arith", "_issue_swap_bypass", "_ensure_operands"}
REFERENCE_SPEC_STAGES = {"_rename", "_dispatch", "_pre_issue", "_commit",
                         "_retire", "_complete", "_execute_arith",
                         "_execute_memory"}


def _methods(cls) -> dict:
    """Name -> function for every method defined in ``cls`` itself."""
    out = {}
    for name, value in vars(cls).items():
        if isinstance(value, property):
            value = value.fget
        elif isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if inspect.isfunction(value):
            out[name] = value
    return out


def _ast_without_docstring(func) -> str:
    node = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        node.body = body[1:]
    return ast.dump(node)


def test_no_method_body_is_duplicated_across_pipelines():
    sched = _methods(VectorPipeline)
    ref = _methods(ReferencePipeline)
    copies = sorted(name for name in sched.keys() & ref.keys()
                    if _ast_without_docstring(sched[name])
                    == _ast_without_docstring(ref[name]))
    assert not copies, (
        f"identical in VectorPipeline and ReferencePipeline; move them to "
        f"PipelineModel: {copies}")


def test_subclasses_do_not_override_the_shared_model():
    model = _methods(PipelineModel).keys()
    # VectorPipeline extends the constructor with its scheduler memo state.
    assert model & _methods(VectorPipeline).keys() == {"__init__"}
    assert not model & _methods(ReferencePipeline).keys()


def test_reference_keeps_only_stepper_and_spec_stage_bodies():
    assert set(_methods(ReferencePipeline)) == (REFERENCE_STEPPER
                                                | REFERENCE_SPEC_STAGES)


#: Per-access helpers the scheduler calls, held to the same rules.
HOT_HELPERS = {"MemoryLayout.base_addr": MemoryLayout.base_addr,
               "VectorMemoryUnit.plan": VectorMemoryUnit.plan,
               "evaluate_arith": evaluate_arith}


def _tree(func) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]


def _enum_member_loads(func) -> list:
    """``UopState.X`` / ``Tag.X`` / ``AddressSpace.X`` class-attribute
    loads in ``func``."""
    return [f"{node.value.id}.{node.attr}" for node in ast.walk(_tree(func))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("UopState", "Tag", "AddressSpace")]


def _op_keyed_lookups(func) -> list:
    """``d[key]`` / ``d.get(key)`` where ``key`` is an ``Op`` member: a
    parameter annotated ``Op``, an ``x.op`` attribute or ``Op.X``."""
    tree = _tree(func)
    op_params = {arg.arg for arg in tree.args.args
                 if isinstance(arg.annotation, ast.Name)
                 and arg.annotation.id == "Op"}

    def is_op(key) -> bool:
        if isinstance(key, ast.Name):
            return key.id in op_params
        return isinstance(key, ast.Attribute) and (
            key.attr == "op" or (isinstance(key.value, ast.Name)
                                 and key.value.id == "Op"))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_op(node.slice):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args
              and is_op(node.args[0])):
            found.append(ast.unparse(node))
    return found


def test_hot_methods_use_module_bound_enum_members():
    """CPython 3.11 pays an enum class-attribute lookup per
    ``UopState.DONE`` and runs ``Op.__hash__`` in Python; the scheduler and
    its per-access helpers bind the members they need once, at module
    level, and key opcode tables by ``op._value_``.  Micro-ops compare by
    identity: a generated field-by-field ``__eq__`` would run on every
    ``in`` / ``remove`` over the pipeline's uop lists."""
    funcs = {f"{cls.__name__}.{name}": func
             for cls in (PipelineModel, VectorPipeline)
             for name, func in _methods(cls).items() if name != "__init__"}
    funcs.update(HOT_HELPERS)
    loads = {name: found for name, func in funcs.items()
             if (found := _enum_member_loads(func) + _op_keyed_lookups(func))}
    assert not loads, loads
    assert MicroOp.__eq__ is object.__eq__
    assert MicroOp.__hash__ is object.__hash__
    # VectorPipeline._rename passes these positionally.
    assert [f.name for f in dataclasses.fields(MicroOp)][:5] == [
        "inst", "src_vvrs", "dst_vvr", "old_dst_vvr", "renamed_at"]


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _self_fields(func) -> set:
    """Attributes ``func`` assigns on ``self``, plainly or annotated."""
    fields = set()
    for node in ast.walk(_tree(func)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    fields.add(sub.attr)
    return fields


def _loaded_attributes() -> set:
    """Every attribute name ``src/repro`` reads (``x.name`` in a load)."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
    return names


def test_no_constructor_field_is_write_only():
    """A field the constructors set that no code in ``src/repro`` reads
    costs a store per update and explains nothing: read it or delete it.
    Updates (``self.x += 1``) are stores, not reads."""
    fields = (_self_fields(PipelineModel.__init__)
              | _self_fields(VectorPipeline.__init__))
    assert len(fields) > 50  # the walk found the constructors' fields
    assert sorted(fields - _loaded_attributes()) == []
