type t = {
  path : string;
  table : (string, Job_result.t) Hashtbl.t;
  mutable order : string list;  (* reversed first-appearance order *)
  mutable dropped : int;
  out : out_channel;
}

let load_line t line =
  if String.trim line <> "" then begin
    match Job_result.of_line line with
    | Ok r ->
      if not (Hashtbl.mem t.table r.Job_result.job_id) then
        t.order <- r.Job_result.job_id :: t.order;
      Hashtbl.replace t.table r.Job_result.job_id r
    | Error _ -> t.dropped <- t.dropped + 1
  end

let open_ path =
  let scan =
    if Sys.file_exists path then
      Iddq_util.Io.with_in path (fun ic ->
          let lines = In_channel.input_lines ic in
          (* a file not ending in '\n' was torn mid-write: its last
             line is the record that was being written *)
          let len = in_channel_length ic in
          let torn =
            len > 0
            && (seek_in ic (len - 1);
                input_char ic <> '\n')
          in
          if torn then
            let partial = List.nth lines (List.length lines - 1) in
            (List.filteri (fun i _ -> i < List.length lines - 1) lines,
             Some (len - String.length partial))
          else (lines, None))
    else Ok ([], None)
  in
  (* cut a torn record off (even one cut just before its '\n' that
     still parses) so the next append starts a fresh line and the torn
     record never comes back on a later open *)
  let cut = function
    | Some keep -> (
      try Unix.truncate path keep; Ok 1
      with Unix.Unix_error (e, _, _) ->
        Error (Iddq_util.Io_error.of_sys_error ~path (Unix.error_message e)))
    | None -> Ok 0
  in
  match scan with
  | Error e -> Error e
  | Ok (existing, torn) -> begin
    match cut torn with
    | Error e -> Error e
    | Ok dropped -> begin
      match
        open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
      with
      | exception Sys_error m -> Error (Iddq_util.Io_error.of_sys_error ~path m)
      | out ->
        let t = { path; table = Hashtbl.create 64; order = []; dropped; out } in
        List.iter (load_line t) existing;
        Ok t
    end
  end

let path t = t.path
let find t id = Hashtbl.find_opt t.table id

let records t = List.rev_map (fun id -> Hashtbl.find t.table id) t.order

let count t = Hashtbl.length t.table
let dropped t = t.dropped

let append t r =
  output_string t.out (Job_result.to_line r);
  output_char t.out '\n';
  flush t.out;
  if not (Hashtbl.mem t.table r.Job_result.job_id) then
    t.order <- r.Job_result.job_id :: t.order;
  Hashtbl.replace t.table r.Job_result.job_id r

let close t = close_out t.out
