let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

let line ?(width = 72) ?(height = 16) ~series () =
  let all_points = List.concat_map (fun (_, a) -> Array.to_list a) series in
  match all_points with
  | [] -> "(no data)"
  | _ ->
      let tmin = List.fold_left (fun acc (t, _) -> min acc t) max_int all_points in
      let tmax = List.fold_left (fun acc (t, _) -> max acc t) min_int all_points in
      let vmax =
        List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 all_points
      in
      let vmax = if vmax <= 0.0 then 1.0 else vmax in
      let tspan = max 1 (tmax - tmin) in
      let grid = Array.make_matrix height width ' ' in
      List.iteri
        (fun si (_, points) ->
          let glyph = glyphs.(si mod Array.length glyphs) in
          Array.iter
            (fun (t, v) ->
              let x = (t - tmin) * (width - 1) / tspan in
              let y =
                height - 1
                - int_of_float (v /. vmax *. float_of_int (height - 1))
              in
              let y = max 0 (min (height - 1) y) in
              grid.(y).(x) <- glyph)
            points)
        series;
      let buf = Buffer.create (width * height * 2) in
      Array.iteri
        (fun y row ->
          let label =
            if y = 0 then Printf.sprintf "%10.1f |" vmax
            else if y = height - 1 then Printf.sprintf "%10.1f |" 0.0
            else "           |"
          in
          Buffer.add_string buf label;
          Buffer.add_string buf (String.init width (fun x -> row.(x)));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf "           +";
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "            t = %.2fs .. %.2fs\n"
           (float_of_int tmin /. 1e9)
           (float_of_int tmax /. 1e9));
      List.iteri
        (fun si (name, _) ->
          Buffer.add_string buf
            (Printf.sprintf "            %c = %s\n"
               glyphs.(si mod Array.length glyphs)
               name))
        series;
      Buffer.contents buf

let downsample points ~max_points =
  let n = Array.length points in
  if n <= max_points || max_points <= 1 then points
  else
    Array.init max_points (fun i -> points.(i * (n - 1) / (max_points - 1)))
