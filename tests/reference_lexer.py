"""The script lexer as a plain character loop, kept as a slow reference.

``subsetid.script`` checks every character with one regular expression and
then hands tokens to the parser on demand. This loop walks the text one
character at a time and builds every token up front, so tests can compare
the two: the same tokens with the same positions, and the same first
unexpected character.
"""

import string
from collections import namedtuple

from subsetid.errors import ScriptError

RefToken = namedtuple("RefToken", "kind value line column")

_DIGITS = set(string.digits)
_NAME_START = set(string.ascii_letters + "_")
_NAME_BODY = set(string.ascii_letters + string.digits + "_")
_SYMBOLS = set("()[],:=")


def reference_lex(text: str) -> list[RefToken]:
    """Every token of ``text``, ending with an "end" token; ScriptError at
    the first unexpected character outside a comment."""
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch in " \t\r":
            column += 1
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in _DIGITS:
            start, startcol = i, column
            while i < len(text) and text[i] in _DIGITS:
                i += 1
                column += 1
            tokens.append(RefToken("int", text[start:i], line, startcol))
        elif ch in _NAME_START:
            start, startcol = i, column
            while i < len(text) and text[i] in _NAME_BODY:
                i += 1
                column += 1
            tokens.append(RefToken("name", text[start:i], line, startcol))
        elif ch in _SYMBOLS:
            tokens.append(RefToken(ch, ch, line, column))
            column += 1
            i += 1
        else:
            raise ScriptError(f"unexpected character {ch!r}", line, column)
    tokens.append(RefToken("end", "", line, column))
    return tokens
