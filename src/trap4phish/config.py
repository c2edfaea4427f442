"""Keyword lists and thresholds the analyzers match against.

They are part of the feature definition, not settings: the same bytes must
always give the same feature vector, so that datasets extracted by different
runs stay comparable. Changing any of them changes feature values, and so
bumps the schema version of every format that reads it.
"""

# Case-insensitive substrings flagged as suspicious inside VBA macro source.
VBA_SUSPICIOUS_KEYWORDS = (
    "autoopen",
    "auto_open",
    "autoclose",
    "document_open",
    "workbook_open",
    "shell",
    "wscript.shell",
    "createobject",
    "getobject",
    "powershell",
    "cmd.exe",
    "urldownloadtofile",
    "xmlhttp",
    "adodb.stream",
    "savetofile",
    "environ",
    "callbyname",
    "execute",
    "chrw",
)

# System-interaction identifiers counted for the spreadsheet api_keyword_count.
XLSX_API_KEYWORDS = (
    "urldownloadtofile",
    "shellexecute",
    "winexec",
    "createprocess",
    "getprocaddress",
    "virtualalloc",
    "rtlmovememory",
    "wininet",
    "winhttp",
)

# Procedure / defined names that auto-execute when a workbook or document opens.
AUTO_EXEC_NAMES = (
    "auto_open",
    "auto_close",
    "auto_activate",
    "workbook_open",
    "workbook_beforeclose",
    "document_open",
    "autoexec",
)

# Phishing lure words counted over visible HTML text.
HTML_SUSPICIOUS_KEYWORDS = (
    "login",
    "password",
    "secure",
    "verify",
    "account",
    "bank",
    "update",
    "confirm",
)

URL_SHORTENER_HOSTS = (
    "bit.ly",
    "tinyurl.com",
    "t.co",
    "goo.gl",
    "ow.ly",
    "is.gd",
)

# Minimum run length for a base64-looking match; suppresses random identifiers.
BASE64_MIN_LENGTH = 24
