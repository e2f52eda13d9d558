"""AST utilities for the code transformations: printing, cloning, substitution.

The malleable-kernel generator works AST-to-AST and then prints the result
back to OpenCL-C text, so the transformed kernel can be compiled by the
same frontend and executed by the same interpreter as the original — the
round trip is itself a correctness check.
"""

from __future__ import annotations

import copy
from typing import Callable

from ..frontend import ast
from ..frontend.errors import SourceLocation

#: Location attached to synthesised nodes.
SYNTH = SourceLocation(0, 0)


def clone(node: ast.Node) -> ast.Node:
    """Deep-copy an AST subtree."""
    return copy.deepcopy(node)


# ---------------------------------------------------------------------------
# Node construction helpers (all carry the synthetic location)
# ---------------------------------------------------------------------------


def ident(name: str) -> ast.Identifier:
    return ast.Identifier(location=SYNTH, name=name)


def intlit(value: int) -> ast.IntLiteral:
    return ast.IntLiteral(location=SYNTH, value=value, text=str(value))


def call(name: str, *args: ast.Expr) -> ast.Call:
    return ast.Call(location=SYNTH, name=name, args=list(args))


def binop(op: str, left: ast.Expr, right: ast.Expr) -> ast.BinaryOp:
    return ast.BinaryOp(location=SYNTH, op=op, left=left, right=right)


def assign(target: ast.Expr, value: ast.Expr, op: str = "=") -> ast.Assignment:
    return ast.Assignment(location=SYNTH, op=op, target=target, value=value)


def decl_stmt(ctype: ast.CType, name: str, init: ast.Expr | None = None,
              dims: list[ast.Expr] | None = None) -> ast.DeclStmt:
    return ast.DeclStmt(
        location=SYNTH,
        decls=[ast.VarDecl(location=SYNTH, type=ctype, name=name,
                           array_dims=dims or [], init=init)],
    )


def expr_stmt(expr: ast.Expr) -> ast.ExprStmt:
    return ast.ExprStmt(location=SYNTH, expr=expr)


def block(*stmts: ast.Stmt) -> ast.Block:
    return ast.Block(location=SYNTH, body=list(stmts))


def if_stmt(cond: ast.Expr, then: ast.Stmt, otherwise: ast.Stmt | None = None) -> ast.If:
    return ast.If(location=SYNTH, cond=cond, then=then, otherwise=otherwise)


def param(ctype: ast.CType, name: str) -> ast.Param:
    return ast.Param(location=SYNTH, type=ctype, name=name)


def get_work_item_call(name: str, dim: int) -> ast.Call:
    return call(name, intlit(dim))


# ---------------------------------------------------------------------------
# Expression substitution
# ---------------------------------------------------------------------------


def substitute_calls(
    node: ast.Node, replace: Callable[[ast.Call], ast.Expr | None]
) -> ast.Node:
    """Return a copy of ``node`` with some Call expressions replaced.

    ``replace`` receives each Call node (bottom-up) and returns either a
    replacement expression or ``None`` to keep the call.  Used to rewrite
    ``get_global_id(d)`` into the dynamic-worklist index computation of
    Figures 5/6.
    """

    def rewrite(n: ast.Node) -> ast.Node:
        for f_name, value in list(vars(n).items()):
            if isinstance(value, ast.Node):
                setattr(n, f_name, rewrite(value))
            elif isinstance(value, list):
                setattr(
                    n,
                    f_name,
                    [rewrite(v) if isinstance(v, ast.Node) else v for v in value],
                )
        if isinstance(n, ast.Call):
            replacement = replace(n)
            if replacement is not None:
                return replacement
        return n

    return rewrite(clone(node))


def end_item_on_return(
    stmt: ast.Stmt, error: type[Exception], in_loop: bool = False
) -> ast.Stmt:
    """Make a body-level ``return`` end one work item, not the whole loop.

    Both transformations run the kernel body inside a loop over work
    items (the malleable drain loop, the CPU item loop), where a
    ``return`` would end every item still to come.  It becomes
    ``continue``, which moves on to the next item.  A ``return`` inside
    one of the kernel's own loops has no such exact rewrite (``continue``
    would resume that inner loop), so it raises ``error``.  Rewrites
    ``stmt`` in place; pass a copy.
    """
    if isinstance(stmt, ast.Return):
        if in_loop:
            raise error("a return inside a loop cannot be confined to one "
                        "work item of the transformed kernel's item loop")
        return ast.Continue(location=stmt.location)
    if isinstance(stmt, ast.Block):
        stmt.body = [end_item_on_return(s, error, in_loop) for s in stmt.body]
    elif isinstance(stmt, ast.If):
        stmt.then = end_item_on_return(stmt.then, error, in_loop)
        if stmt.otherwise is not None:
            stmt.otherwise = end_item_on_return(stmt.otherwise, error, in_loop)
    elif isinstance(stmt, (ast.For, ast.While, ast.DoWhile)):
        stmt.body = end_item_on_return(stmt.body, error, in_loop=True)
    return stmt


# ---------------------------------------------------------------------------
# Source printer
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    ",": 0, "=": 1, "+=": 1, "-=": 1, "*=": 1, "/=": 1, "%=": 1,
    "&=": 1, "|=": 1, "^=": 1, "<<=": 1, ">>=": 1,
    "?:": 2, "||": 3, "&&": 4, "|": 5, "^": 6, "&": 7,
    "==": 8, "!=": 8, "<": 9, ">": 9, "<=": 9, ">=": 9,
    "<<": 10, ">>": 10, "+": 11, "-": 11, "*": 12, "/": 12, "%": 12,
}


class SourcePrinter:
    """Prints an AST back to compilable OpenCL-C text."""

    def __init__(self, indent: str = "    "):
        self.indent_text = indent

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.Expr, parent_prec: int = 0) -> str:
        text, prec = self._expr(node)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _expr(self, node: ast.Expr) -> tuple[str, int]:
        if isinstance(node, ast.IntLiteral):
            return (node.text or str(node.value)), 99
        if isinstance(node, ast.FloatLiteral):
            if node.text:
                return node.text, 99
            text = repr(node.value)
            return (text + "f" if "." in text or "e" in text else text + ".0f"), 99
        if isinstance(node, ast.Identifier):
            return node.name, 99
        if isinstance(node, ast.BinaryOp):
            prec = _PRECEDENCE[node.op]
            left = self.expr(node.left, prec)
            right = self.expr(node.right, prec + 1)
            return f"{left} {node.op} {right}", prec
        if isinstance(node, ast.UnaryOp):
            operand = self.expr(node.operand, 13)
            return f"{node.op}{operand}", 13
        if isinstance(node, ast.PostfixOp):
            operand = self.expr(node.operand, 14)
            return f"{operand}{node.op}", 14
        if isinstance(node, ast.Assignment):
            target = self.expr(node.target, 2)
            value = self.expr(node.value, 1)
            return f"{target} {node.op} {value}", 1
        if isinstance(node, ast.Conditional):
            cond = self.expr(node.cond, 3)
            then = self.expr(node.then, 2)
            otherwise = self.expr(node.otherwise, 2)
            return f"{cond} ? {then} : {otherwise}", 2
        if isinstance(node, ast.Call):
            args = ", ".join(self.expr(a, 1) for a in node.args)
            return f"{node.name}({args})", 14
        if isinstance(node, ast.Index):
            base = self.expr(node.base, 14)
            return f"{base}[{self.expr(node.index)}]", 14
        if isinstance(node, ast.Cast):
            operand = self.expr(node.operand, 13)
            return f"({node.type}){operand}", 13
        raise TypeError(f"cannot print expression {type(node).__name__}")

    # -- statements -----------------------------------------------------------

    def stmt(self, node: ast.Stmt, depth: int = 0) -> str:
        pad = self.indent_text * depth
        if isinstance(node, ast.Block):
            inner = "\n".join(self.stmt(s, depth + 1) for s in node.body)
            return f"{pad}{{\n{inner}\n{pad}}}" if node.body else f"{pad}{{ }}"
        if isinstance(node, ast.DeclStmt):
            return pad + self._decl_text(node) + ";"
        if isinstance(node, ast.ExprStmt):
            return f"{pad}{self.expr(node.expr)};"
        if isinstance(node, ast.If):
            text = f"{pad}if ({self.expr(node.cond)})\n{self._nested(node.then, depth)}"
            if node.otherwise is not None:
                text += f"\n{pad}else\n{self._nested(node.otherwise, depth)}"
            return text
        if isinstance(node, ast.For):
            init = ""
            if isinstance(node.init, ast.DeclStmt):
                init = self._decl_text(node.init)
            elif isinstance(node.init, ast.ExprStmt):
                init = self.expr(node.init.expr)
            cond = self.expr(node.cond) if node.cond is not None else ""
            step = self.expr(node.step) if node.step is not None else ""
            return f"{pad}for ({init}; {cond}; {step})\n{self._nested(node.body, depth)}"
        if isinstance(node, ast.While):
            return f"{pad}while ({self.expr(node.cond)})\n{self._nested(node.body, depth)}"
        if isinstance(node, ast.DoWhile):
            body = self._nested(node.body, depth)
            return f"{pad}do\n{body}\n{pad}while ({self.expr(node.cond)});"
        if isinstance(node, ast.Return):
            if node.value is None:
                return f"{pad}return;"
            return f"{pad}return {self.expr(node.value)};"
        if isinstance(node, ast.Break):
            return f"{pad}break;"
        if isinstance(node, ast.Continue):
            return f"{pad}continue;"
        raise TypeError(f"cannot print statement {type(node).__name__}")

    def _nested(self, node: ast.Stmt, depth: int) -> str:
        if isinstance(node, ast.Block):
            return self.stmt(node, depth)
        return self.stmt(node, depth + 1)

    def _decl_text(self, node: ast.DeclStmt) -> str:
        parts = []
        for decl in node.decls:
            text = f"{decl.type} {decl.name}"
            for dim in decl.array_dims:
                text += f"[{self.expr(dim)}]"
            if decl.init is not None:
                text += f" = {self.expr(decl.init)}"
            parts.append(text)
        return ", ".join(parts)

    # -- functions ------------------------------------------------------------

    def function(self, node: ast.FunctionDef) -> str:
        qualifier = "__kernel " if node.is_kernel else ""
        params = ", ".join(f"{p.type} {p.name}" for p in node.params)
        header = f"{qualifier}{node.return_type} {node.name}({params})"
        return f"{header}\n{self.stmt(node.body)}"


def print_kernel(kernel: ast.FunctionDef) -> str:
    """Print a kernel definition back to OpenCL-C source text."""
    return SourcePrinter().function(kernel)
