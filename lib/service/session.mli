(** One protocol session over blocking channels: the stdin/stdout loop
    behind [sxsi repl].  TCP sessions are served by [Ev_server]. *)

val run : ?max_line:int -> in_channel -> out_channel -> Service.t -> unit
(** Read one request per line from the input channel and write each
    rendered response to the output channel until [QUIT] or EOF.

    Reads at most [max_line] (default {!Protocol.default_max_line})
    bytes per request line; a longer line is drained to its newline
    and answered [ERR TOOLONG], and the session goes on.  Tracks the
    session's [DEADLINE] override and passes it to
    {!Service.handle_line}. *)
