"""Recursive-descent parser for the mini-C frontend.

Grammar subset (no typedefs, no function pointers, no switch):

* top level: struct declarations, global variables, function definitions and
  prototypes;
* statements: declarations, expression statements, ``if``/``else``,
  ``while``, ``do``/``while``, ``for``, ``return``, ``break``, ``continue``
  and compound blocks;
* expressions: the usual C operator precedence including assignment,
  conditional, pointer/array/member access, casts and ``sizeof``.
"""

from __future__ import annotations

from typing import List, Optional

from .ast_nodes import (
    ArrayIndex,
    ArrayTypeSpec,
    Assignment,
    BinaryOp,
    BreakStmt,
    Call,
    Cast,
    CharLiteral,
    CompoundStmt,
    Conditional,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    Expr,
    ExprStmt,
    FieldDecl,
    FloatLiteral,
    ForStmt,
    FunctionDecl,
    Identifier,
    IfStmt,
    IntLiteral,
    Member,
    NamedTypeSpec,
    NullLiteral,
    ParamDecl,
    PointerTypeSpec,
    ReturnStmt,
    SizeOf,
    Stmt,
    StringLiteral,
    StructDecl,
    StructTypeSpec,
    TranslationUnit,
    TypeSpec,
    UnaryOp,
    VarDecl,
    WhileStmt,
)
from .lexer import Token, TokenKind, tokenize

__all__ = ["ParseError", "Parser", "parse"]

_TYPE_KEYWORDS = {"int", "char", "float", "double", "void", "long", "short", "unsigned", "signed"}

# Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class ParseError(Exception):
    """Raised on a syntax error, with the offending token's position."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} (got {token.text!r} at line {token.line})")
        self.token = token


class Parser:
    """Token-stream parser producing a :class:`TranslationUnit`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._position = 0
        self._last = len(tokens) - 1  # index of the terminating EOF token

    # -- token helpers ------------------------------------------------------
    # The token list is EOF-terminated and ``_advance`` never moves past the
    # EOF token, so ``self._position`` always indexes a real token.  The hot
    # helpers below read ``kind``/``text`` directly instead of chaining
    # through ``_peek().is_punct(...)`` — this path runs once per token per
    # grammar decision and dominated parse time before being flattened.
    def _peek(self, offset: int = 0) -> Token:
        index = self._position + offset
        if index > self._last:
            index = self._last
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != TokenKind.EOF:
            self._position += 1
        return token

    def _check_punct(self, text: str) -> bool:
        token = self._tokens[self._position]
        return token.kind == TokenKind.PUNCT and token.text == text

    def _check_keyword(self, text: str) -> bool:
        token = self._tokens[self._position]
        return token.kind == TokenKind.KEYWORD and token.text == text

    def _accept_punct(self, text: str) -> bool:
        token = self._tokens[self._position]
        if token.kind == TokenKind.PUNCT and token.text == text:
            self._position += 1
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        token = self._tokens[self._position]
        if token.kind == TokenKind.KEYWORD and token.text == text:
            self._position += 1
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        token = self._tokens[self._position]
        if token.kind != TokenKind.PUNCT or token.text != text:
            raise ParseError(f"expected {text!r}", token)
        self._position += 1
        return token

    def _expect_ident(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != TokenKind.IDENT:
            raise ParseError("expected identifier", token)
        self._position += 1
        return token

    # -- types ----------------------------------------------------------------
    def _at_type_start(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.kind != TokenKind.KEYWORD:
            return False
        return token.text in _TYPE_KEYWORDS or token.text in ("struct", "const", "static", "extern")

    def _parse_base_type(self) -> TypeSpec:
        # Skip storage/qualifier keywords.
        while self._accept_keyword("const") or self._accept_keyword("static") \
                or self._accept_keyword("extern"):
            pass
        if self._accept_keyword("struct"):
            name_token = self._expect_ident()
            return StructTypeSpec(name_token.text)
        token = self._peek()
        if token.kind == TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
            # Collapse multi-word types (unsigned long, long long...) onto one name.
            names = [self._advance().text]
            while self._peek().kind == TokenKind.KEYWORD and self._peek().text in _TYPE_KEYWORDS:
                names.append(self._advance().text)
            base = "int"
            if "void" in names:
                base = "void"
            elif "double" in names:
                base = "double"
            elif "float" in names:
                base = "float"
            elif "char" in names:
                base = "char"
            return NamedTypeSpec(base)
        raise ParseError("expected a type", token)

    def _parse_pointers(self, base: TypeSpec) -> TypeSpec:
        while self._accept_punct("*"):
            while self._accept_keyword("const"):
                pass
            base = PointerTypeSpec(base)
        return base

    # -- top level ------------------------------------------------------------
    def parse_translation_unit(self) -> TranslationUnit:
        unit = TranslationUnit()
        while self._peek().kind != TokenKind.EOF:
            start = self._position
            if self._check_keyword("struct") and self._peek(2).is_punct("{"):
                unit.structs.append(self._parse_struct_decl())
            elif self._check_keyword("typedef"):
                # Accepted and skipped up to the terminating semicolon.
                while not self._accept_punct(";"):
                    self._advance()
            else:
                self._parse_external_declaration(unit)
            unit.spans.append((start, self._position))
        return unit

    def parse_function_definition(self, start: int, end: int) -> Optional[FunctionDecl]:
        """Parse the one top-level declaration at token ``start``.

        Returns the function definition when the declaration is one and ends
        exactly at token ``end``, else ``None``.  Syntax errors raise the
        same :class:`ParseError` a whole-unit parse would, because the
        tokens (and so their positions) are the whole stream's.
        """
        self._position = start
        unit = TranslationUnit()
        self._parse_external_declaration(unit)
        if self._position != end or unit.globals or len(unit.functions) != 1 \
                or unit.functions[0].body is None:
            return None
        return unit.functions[0]

    def _parse_struct_decl(self) -> StructDecl:
        self._advance()  # struct
        name = self._expect_ident().text
        self._expect_punct("{")
        fields: List[FieldDecl] = []
        while not self._accept_punct("}"):
            base = self._parse_base_type()
            while True:
                field_type = self._parse_pointers(base)
                field_name = self._expect_ident().text
                if self._accept_punct("["):
                    size_expr = self._parse_expression()
                    self._expect_punct("]")
                    field_type = ArrayTypeSpec(field_type, size_expr)
                fields.append(FieldDecl(field_name, field_type))
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")
        self._expect_punct(";")
        return StructDecl(name, fields)

    def _parse_external_declaration(self, unit: TranslationUnit) -> None:
        base = self._parse_base_type()
        declarator_type = self._parse_pointers(base)
        name_token = self._expect_ident()
        if self._check_punct("("):
            unit.functions.append(self._parse_function_rest(declarator_type, name_token.text))
            return
        # Global variable(s).
        current_type = declarator_type
        current_name = name_token.text
        while True:
            if self._accept_punct("["):
                size_expr = self._parse_expression() if not self._check_punct("]") else None
                self._expect_punct("]")
                current_type = ArrayTypeSpec(current_type, size_expr)
            initializer = None
            if self._accept_punct("="):
                initializer = self._parse_assignment()
            unit.globals.append(VarDecl(current_name, current_type, initializer,
                                        line=name_token.line))
            if not self._accept_punct(","):
                break
            current_type = self._parse_pointers(base)
            current_name = self._expect_ident().text
        self._expect_punct(";")

    def _parse_function_rest(self, return_type: TypeSpec, name: str) -> FunctionDecl:
        self._expect_punct("(")
        params: List[ParamDecl] = []
        is_vararg = False
        if not self._check_punct(")"):
            if self._check_keyword("void") and self._peek(1).is_punct(")"):
                self._advance()
            else:
                while True:
                    if self._accept_punct("..."):
                        is_vararg = True
                        break
                    param_base = self._parse_base_type()
                    param_type = self._parse_pointers(param_base)
                    param_name = ""
                    if self._peek().kind == TokenKind.IDENT:
                        param_name = self._advance().text
                    if self._accept_punct("["):
                        if not self._check_punct("]"):
                            self._parse_expression()
                        self._expect_punct("]")
                        param_type = PointerTypeSpec(param_type)
                    params.append(ParamDecl(param_name or f"arg{len(params)}", param_type))
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        if self._accept_punct(";"):
            return FunctionDecl(name, return_type, params, None, is_vararg)
        body = self._parse_compound()
        return FunctionDecl(name, return_type, params, body, is_vararg)

    # -- statements --------------------------------------------------------------
    def _parse_compound(self) -> CompoundStmt:
        self._expect_punct("{")
        statements: List[Stmt] = []
        while not self._accept_punct("}"):
            statements.append(self._parse_statement())
        return CompoundStmt(statements)

    def _parse_statement(self) -> Stmt:
        if self._check_punct("{"):
            return self._parse_compound()
        if self._accept_punct(";"):
            return EmptyStmt()
        if self._at_type_start():
            return self._parse_declaration_statement()
        if self._accept_keyword("if"):
            self._expect_punct("(")
            condition = self._parse_expression()
            self._expect_punct(")")
            then_branch = self._parse_statement()
            else_branch = self._parse_statement() if self._accept_keyword("else") else None
            return IfStmt(condition, then_branch, else_branch)
        if self._accept_keyword("while"):
            self._expect_punct("(")
            condition = self._parse_expression()
            self._expect_punct(")")
            return WhileStmt(condition, self._parse_statement())
        if self._accept_keyword("do"):
            body = self._parse_statement()
            if not self._accept_keyword("while"):
                raise ParseError("expected 'while' after do-body", self._peek())
            self._expect_punct("(")
            condition = self._parse_expression()
            self._expect_punct(")")
            self._expect_punct(";")
            return DoWhileStmt(body, condition)
        if self._accept_keyword("for"):
            self._expect_punct("(")
            init: Optional[Stmt] = None
            if not self._check_punct(";"):
                if self._at_type_start():
                    init = self._parse_declaration_statement()
                else:
                    init = ExprStmt(self._parse_expression())
                    self._expect_punct(";")
            else:
                self._advance()
            condition = None
            if not self._check_punct(";"):
                condition = self._parse_expression()
            self._expect_punct(";")
            step = None
            if not self._check_punct(")"):
                step = self._parse_expression()
            self._expect_punct(")")
            return ForStmt(init, condition, step, self._parse_statement())
        if self._accept_keyword("return"):
            value = None if self._check_punct(";") else self._parse_expression()
            self._expect_punct(";")
            return ReturnStmt(value)
        if self._accept_keyword("break"):
            self._expect_punct(";")
            return BreakStmt()
        if self._accept_keyword("continue"):
            self._expect_punct(";")
            return ContinueStmt()
        expression = self._parse_expression()
        self._expect_punct(";")
        return ExprStmt(expression)

    def _parse_declaration_statement(self) -> DeclStmt:
        base = self._parse_base_type()
        declarations: List[VarDecl] = []
        while True:
            declared_type = self._parse_pointers(base)
            name_token = self._expect_ident()
            while self._accept_punct("["):
                size_expr = self._parse_expression() if not self._check_punct("]") else None
                self._expect_punct("]")
                declared_type = ArrayTypeSpec(declared_type, size_expr)
            initializer = None
            if self._accept_punct("="):
                initializer = self._parse_assignment()
            declarations.append(VarDecl(name_token.text, declared_type, initializer,
                                        line=name_token.line))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return DeclStmt(declarations)

    # -- expressions ----------------------------------------------------------------
    def _parse_expression(self) -> Expr:
        expression = self._parse_assignment()
        while self._accept_punct(","):
            # The comma operator evaluates both and yields the right side.
            right = self._parse_assignment()
            expression = BinaryOp(",", expression, right)
        return expression

    def _parse_assignment(self) -> Expr:
        target = self._parse_conditional()
        token = self._peek()
        if token.kind == TokenKind.PUNCT and token.text in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment()
            op = token.text[:-1] if token.text != "=" else ""
            return Assignment(target, value, op, line=token.line)
        return target

    def _parse_conditional(self) -> Expr:
        condition = self._parse_binary(1)
        if self._accept_punct("?"):
            true_value = self._parse_expression()
            self._expect_punct(":")
            false_value = self._parse_conditional()
            return Conditional(condition, true_value, false_value)
        return condition

    def _parse_binary(self, min_precedence: int) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            precedence = (_BINARY_PRECEDENCE.get(token.text)
                          if token.kind == TokenKind.PUNCT else None)
            if precedence is None or precedence < min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = BinaryOp(token.text, left, right, line=token.line)

    def _is_cast_start(self) -> bool:
        """True when the upcoming ``(`` starts a cast expression."""
        if not self._check_punct("("):
            return False
        next_token = self._peek(1)
        return next_token.kind == TokenKind.KEYWORD and (
            next_token.text in _TYPE_KEYWORDS or next_token.text == "struct"
            or next_token.text == "const"
        )

    def _parse_unary(self) -> Expr:
        token = self._peek()
        if token.kind == TokenKind.PUNCT and token.text in ("-", "!", "~", "*", "&", "+"):
            self._advance()
            operand = self._parse_unary()
            if token.text == "+":
                return operand
            return UnaryOp(token.text, operand, line=token.line)
        if token.is_punct("++") or token.is_punct("--"):
            self._advance()
            operand = self._parse_unary()
            return UnaryOp(token.text, operand, is_postfix=False, line=token.line)
        if token.is_keyword("sizeof"):
            self._advance()
            if self._check_punct("(") and (self._peek(1).text in _TYPE_KEYWORDS
                                           or self._peek(1).text == "struct"):
                self._expect_punct("(")
                base = self._parse_base_type()
                target = self._parse_pointers(base)
                self._expect_punct(")")
                return SizeOf(target, line=token.line)
            operand = self._parse_unary()
            return SizeOf(None, operand, line=token.line)
        if self._is_cast_start():
            self._expect_punct("(")
            base = self._parse_base_type()
            target = self._parse_pointers(base)
            self._expect_punct(")")
            operand = self._parse_unary()
            return Cast(target, operand, line=token.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expression = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("["):
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expression = ArrayIndex(expression, index, line=token.line)
            elif token.is_punct("."):
                self._advance()
                field = self._expect_ident().text
                expression = Member(expression, field, is_arrow=False, line=token.line)
            elif token.is_punct("->"):
                self._advance()
                field = self._expect_ident().text
                expression = Member(expression, field, is_arrow=True, line=token.line)
            elif token.is_punct("++") or token.is_punct("--"):
                self._advance()
                expression = UnaryOp(token.text, expression, is_postfix=True, line=token.line)
            elif token.is_punct("(") and isinstance(expression, Identifier):
                self._advance()
                args: List[Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expression = Call(expression.name, args, line=token.line)
            else:
                return expression

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == TokenKind.INT:
            self._advance()
            return IntLiteral(token.value, line=token.line)
        if token.kind == TokenKind.FLOAT:
            self._advance()
            return FloatLiteral(token.value, line=token.line)
        if token.kind == TokenKind.CHAR:
            self._advance()
            return CharLiteral(token.value, line=token.line)
        if token.kind == TokenKind.STRING:
            self._advance()
            return StringLiteral(token.value, line=token.line)
        if token.is_keyword("NULL"):
            self._advance()
            return NullLiteral(line=token.line)
        if token.kind == TokenKind.IDENT:
            self._advance()
            return Identifier(token.text, line=token.line)
        if token.is_punct("("):
            self._advance()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        raise ParseError("expected an expression", token)


def parse(source: str) -> TranslationUnit:
    """Parse mini-C ``source`` text into an AST."""
    return Parser(tokenize(source)).parse_translation_unit()
